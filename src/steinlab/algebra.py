"""Finite-dimensional tracial *-algebras given by structure constants.

An algebra is a basis b_0 .. b_{n-1} together with
    mult[i, j, k]  such that  b_i b_j = sum_k mult[i, j, k] b_k,
    star[:, i]     the coordinates of b_i*  (so v* = star @ conj(v)),
    unit           the coordinates of 1,
    trace          the functional tau, tau(v) = trace @ v (no conjugation).

The GNS inner product is <x, y> = tau(y* x), linear in the first slot.

One routine, axiom_residuals, computes the axiom residuals of given
structure constants. certify_exact bounds them in GNS-orthonormal
coordinates (onb_residuals) by EXACT_BOUND; validate bounds them on the
raw constants by VALID_TOL. Raw coordinates are where a badly
conditioned basis hides an inexact algebra: M2+C under a
non-unitary basis change of condition number 3e2 validates at 1e-8, but
its whitened associativity residual is 1.1e-10 to 7.3e-10 (seeds
100-111), and the kernel readout of vndim returns its dimension up to
9e-10 off. At condition number 1e2 the residuals stay below 3.2e-11 and
the readout is right within 2e-11; the corpus and the examples stay
below 1.2e-14. EXACT_BOUND = 5e-11 separates the two; it is fixed, and
never the report tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._linalg import frob, rank_split, spectral_split
from .errors import InexactAlgebra, RankAmbiguous, ShapeMismatch

# largest axiom residual in GNS-orthonormal coordinates (onb_residuals) of
# an algebra whose derivations are computed; see the module docstring
EXACT_BOUND = 5e-11
# bound of validate on each raw-coordinate residual and below the smallest
# Gram eigenvalue
VALID_TOL = 1e-8


def _carr(a) -> np.ndarray:
    out = np.asarray(a, dtype=complex)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class FDAlgebra:
    """A tracial *-algebra by its structure constants (see the module
    docstring), immutable.

    What is fixed by the constants is computed once, on first use, and
    held by the algebra as a cached property, so that it lives and dies
    with the algebra: the Gram matrix and its factor T = onb_factor with
    T^-1, the factor maps (T, T) and (T^-1, T^-1) of L^2(A (x) A^op)
    (onb_map, onb_inverse_map), the whitened multiplications of the
    Leibniz system (whitened_mult), the right operators of the basis and
    its stars (basis_right_ops), the spectral coordinates of both tensor
    legs (spectral_legs), a generating set and the axiom residuals in
    GNS-orthonormal coordinates.
    """

    dim: int
    mult: np.ndarray
    star: np.ndarray
    unit: np.ndarray
    trace: np.ndarray
    label: str = ""

    def __post_init__(self):
        n = self.dim
        object.__setattr__(self, "mult", _carr(self.mult))
        object.__setattr__(self, "star", _carr(self.star))
        object.__setattr__(self, "unit", _carr(self.unit))
        object.__setattr__(self, "trace", _carr(self.trace))
        shapes = {
            "mult": ((n, n, n), self.mult.shape),
            "star": ((n, n), self.star.shape),
            "unit": ((n,), self.unit.shape),
            "trace": ((n,), self.trace.shape),
        }
        for name, (want, got) in shapes.items():
            if want != got:
                raise ShapeMismatch(f"{self.label or 'algebra'}: {name} has shape {got}, expected {want}")

    # -- basic operations ---------------------------------------------------

    def mul(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return np.einsum("i,j,ijk->k", x, y, self.mult)

    def star_of(self, x: np.ndarray) -> np.ndarray:
        return self.star @ np.conj(x)

    def tr(self, x: np.ndarray) -> complex:
        return complex(self.trace @ x)

    def inner(self, x: np.ndarray, y: np.ndarray) -> complex:
        """GNS inner product tau(y* x)."""
        return complex(np.conj(y) @ (self.gram @ x))

    def norm(self, x: np.ndarray) -> float:
        val = self.inner(x, x).real
        return float(np.sqrt(max(val, 0.0)))

    def basis(self, i: int) -> np.ndarray:
        e = np.zeros(self.dim, dtype=complex)
        e[i] = 1.0
        return e

    # -- multiplication operators -------------------------------------------
    # the only code that turns mult into operators: each takes one element
    # (dim,) or a stack (..., dim) and returns (dim, dim) or (..., dim, dim)

    def left_mult(self, m: np.ndarray) -> np.ndarray:
        """Matrix of x -> m x: [..., k, j] = sum_i m[..., i] mult[i, j, k]."""
        return np.swapaxes(np.tensordot(m, self.mult, axes=(-1, 0)), -1, -2)

    def right_mult(self, m: np.ndarray) -> np.ndarray:
        """Matrix of x -> x m: [..., k, i] = sum_j m[..., j] mult[i, j, k]."""
        return np.swapaxes(np.tensordot(m, self.mult, axes=(-1, 1)), -1, -2)

    @cached_property
    def gram(self) -> np.ndarray:
        """gram[i, j] = tau(b_i* b_j); Hermitian positive definite when faithful."""
        g = np.einsum("ai,ajk,k->ij", self.star, self.mult, self.trace)
        return 0.5 * (g + g.conj().T)

    @cached_property
    def onb_factor(self) -> np.ndarray:
        """Upper-triangular T with gram = T^H T: x -> T x maps coordinates
        to GNS-orthonormal ones; diagonal when the basis is GNS-orthogonal.
        T = L^H for the Cholesky factor gram = L L^H."""
        return np.linalg.cholesky(self.gram).conj().T

    @cached_property
    def onb_inverse(self) -> np.ndarray:
        """T^-1, from GNS-orthonormal coordinates back to basis ones."""
        return np.linalg.inv(self.onb_factor)

    @cached_property
    def onb_map(self) -> FactorMap:
        """(T, T), T = onb_factor, on L^2(A (x) A^op): raw coordinates to
        GNS-orthonormal ones, planned once."""
        return FactorMap((self.onb_factor, self.onb_factor))

    @cached_property
    def onb_inverse_map(self) -> FactorMap:
        """(T^-1, T^-1), GNS-orthonormal coordinates of L^2(A (x) A^op)
        back to raw ones, planned once."""
        return FactorMap((self.onb_inverse, self.onb_inverse))

    @cached_property
    def whitened_mult(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The whitened operators T left_mult(b_x) T^-1 and T right_mult(b_y)
        T^-1 of the Leibniz system (derivations.leibniz_system), indexed
        [x, y, z] as mult is, and the union of their nonzero patterns with
        mult's, on which its entries sit; read-only."""
        t, t_inv, eye = self.onb_factor, self.onb_inverse, np.eye(self.dim)
        lw = (t @ self.left_mult(eye) @ t_inv).transpose(0, 2, 1)
        rw = (t @ self.right_mult(eye) @ t_inv).transpose(2, 0, 1)
        out = lw, rw, (self.mult != 0) | (lw != 0) | (rw != 0)
        for arr in out:
            arr.setflags(write=False)
        return out

    def with_stars(self, gens: np.ndarray) -> list:
        """The columns of gens and their stars; repeats (a set already
        containing its stars) are skipped."""
        seen = set()
        out = []
        for j in range(gens.shape[1]):
            for x in (gens[:, j], self.star_of(gens[:, j])):
                key = (np.round(x, 12) + 0.0).tobytes()
                if key not in seen:
                    seen.add(key)
                    out.append(x)
        return out

    def right_ops(self, xs) -> list:
        """Right multiplication on L^2(A (x) A^op) by x (x) 1 and
        1 (x) x^op for each x of xs, as the one-leg operators
        (0, right_mult(x)) and (1, left_mult(x)) of vndim; the matrices
        read-only, so that a holder can share them."""
        xs = np.reshape(xs, (-1, self.dim))
        rights, lefts = self.right_mult(xs), self.left_mult(xs)
        rights.setflags(write=False)
        lefts.setflags(write=False)
        return [op for r, l in zip(rights, lefts) for op in ((0, r), (1, l))]

    @cached_property
    def basis_right_ops(self) -> tuple:
        """right_ops of the basis and its stars (with_stars), the right
        action of vndim.phi_x at X the basis."""
        return tuple(self.right_ops(self.with_stars(np.eye(self.dim, dtype=complex))))

    @cached_property
    def spectral_legs(self) -> tuple:
        """(rot, rot^-1, classes) of each tensor leg of L^2(A (x) A^op),
        the coordinates of vndim.inner_derivation_module for every
        argument set: leg a in the eigenbasis of the whitened right
        multiplication by one random self-adjoint h = x + x^*, leg b in
        that of its whitened left multiplication (_leg_split). Both are
        right operators of N = A (x) A^op, so their spectral projections
        commute with every right N-module's projection. x is one draw of
        spectral_split from SPLIT_SEED, the same on both legs; the
        matrices read-only."""
        return tuple(_leg_split(self, mult) for mult in (self.right_mult, self.left_mult))

    @cached_property
    def generating_indices(self) -> np.ndarray:
        """Basis indices S, sorted, whose words, the products of one or more
        b_s with s in S (the empty word, 1, left out), span A.

        S is chosen greedily over the basis, walked in index order with the
        basis elements parallel to the unit last, so that the unit joins S
        only when the other words do not reach it: the next index is the
        first in the walk after the last one chosen whose basis element is
        not in the span of the words in S, and close_span then adds it and
        closes the span under left multiplication by the letters b_s, which
        adds every word. Spans are kept GNS-orthonormal (whitened by
        T = onb_factor) and each letter is scaled to unit norm. Which basis
        elements lie in a span, the unit's or the words', is one rank_split
        decision on their distances to it, and each closure step one
        rank_split on the singular values of what it adds (_new_span), all
        with the gap guard. Every basis element ends in S or in the span,
        so the words span A.
        """
        n, t = self.dim, self.onb_factor
        # whitened basis directions and unit
        dirs = t / np.linalg.norm(t, axis=0)
        one = t @ self.unit
        walk = np.argsort(~_outside((one / np.linalg.norm(one))[:, None], dirs), kind="stable")
        chosen, letters = [], []
        span = np.zeros((n, 0), dtype=complex)
        pos = 0
        while span.shape[1] < n:
            outside = _outside(span, dirs[:, walk[pos:]])
            if not outside.any():
                raise RankAmbiguous(
                    f"{self.label or 'algebra'}: every basis element lies in a span of "
                    f"rank {span.shape[1]} < {n}"
                )
            pos += int(np.argmax(outside)) + 1
            i = walk[pos - 1]
            chosen.append(i)
            left = t @ self.left_mult(self.basis(i)) @ self.onb_inverse
            letters.append(left / np.linalg.norm(left))
            # the words b_i w for the words w so far, closed under the letters
            span = close_span(span, letters, np.column_stack([dirs[:, i], letters[-1] @ span]))
        return np.sort(chosen)

    @cached_property
    def onb_residuals(self) -> dict[str, float]:
        """axiom_residuals in GNS-orthonormal coordinates
        (x -> onb_factor x)."""
        t, ti, n = self.onb_factor, self.onb_inverse, self.dim
        # c[i, j, k] = sum_abp ti[a, i] ti[b, j] mult[a, b, p] t[k, p]
        c = np.matmul(ti.T, (ti.T @ self.mult.reshape(n, n * n)).reshape(n, n, n)) @ t.T
        return axiom_residuals(c, t @ self.star @ np.conj(ti), t @ self.unit, self.trace @ ti)


def _leg_split(alg: FDAlgebra, mult) -> tuple:
    """(rot, inv, classes) for one tensor leg L^2(alg), mult being
    alg.right_mult or alg.left_mult: rot maps basis coordinates to
    GNS-orthonormal ones in the eigenbasis of T mult(x + x^*) T^-1,
    T = onb_factor, for the element x with spectral_split's random
    coordinates, formed as one multiplication; inv = rot^-1, and classes
    lists (start, count, size) per cluster size, the clusters of one size
    consecutive. In GNS-orthonormal coordinates T mult(x^*) T^-1 is the
    adjoint of T mult(x) T^-1, the m^H that spectral_split adds."""
    t, ti = alg.onb_factor, alg.onb_inverse
    vec, bounds = spectral_split(lambda x: t @ mult(x) @ ti, alg.dim)
    sizes = np.diff(bounds)
    # the clusters by increasing size, in the order of the split within a size
    u = np.hstack([vec[:, bounds[i] : bounds[i + 1]] for i in np.argsort(sizes, kind="stable")])
    size, count = np.unique(sizes, return_counts=True)
    start = np.cumsum(size * count) - size * count
    rot, inv = u.conj().T @ t, ti @ u
    for mat in (rot, inv):
        mat.setflags(write=False)
    return rot, inv, tuple(zip(start.tolist(), count.tolist(), size.tolist()))


class FactorMap:
    """The map v -> kron(a, b) v c of a factor pair (a, b) or triple
    (a, b, c), None an identity leg, planned once and applied to any stack
    v of shape (..., n1 n2, m): the L^2 axis is read as the two legs
    (n1, n2), a (p1, n1) and b (p2, n2) contract their legs and may be
    rectangular, and c (m, m') right-multiplies the argument axis; the
    result is (..., p1 p2, m'). nn = n1 n2 gives the size of an identity
    leg and is not needed without one (both None: two legs of one size).

    The plan is made here, once. When every factor is monomial (at most
    one nonzero entry in each row of a, b and c^T; a zero row maps to 0),
    as the factors of a monomial basis (matrix units, b u_g) are, the map
    is one gather and one scaling, of the p1 p2 rows with no c, of the
    entries with one; the plan holds the source and the value of each
    output row (entry), without the gather when it is the identity and
    without the scaling when every value is 1. Each entry is then the one
    nonzero product of the matmul it stands for, without its sum of exact
    zeros. Otherwise the map is the matmuls of the factors.
    """

    def __init__(self, factors: tuple, nn: int | None = None):
        a, b, c = (*factors, None)[:3]
        n1 = a.shape[1] if a is not None else nn // b.shape[1] if b is not None else math.isqrt(nn)
        n2 = b.shape[1] if b is not None else nn // n1
        self.factors, self.legs = (a, b, c), (n1, n2)
        self.p1 = n1 if a is None else len(a)
        self.rows = self.p1 * (n2 if b is None else len(b))
        legs = [n1 if a is None else a, n2 if b is None else b]
        plan = _monomial(legs if c is None else [*legs, c.T])
        self.monomial = plan is not None
        if self.monomial:
            src, val = plan
            size = n1 * n2 * (1 if c is None else len(c))
            self.src = None if src.size == size and (src == np.arange(size)).all() else src
            self.scale = None if (val == 1).all() else val.reshape((-1, 1) if c is None else -1)
            self.dtype = val.dtype

    def apply(self, v: np.ndarray) -> np.ndarray:
        """kron(a, b) v c for a stack v (..., n1 n2, m), a new array."""
        a, b, c = self.factors
        *lead, nn, m = v.shape
        if self.monomial and c is None:
            return self._remap(v, -2)
        if self.monomial:
            return self._remap(v.reshape(*lead, nn * m), -1).reshape(*lead, self.rows, c.shape[1])
        (n1, n2), t = self.legs, v
        if a is not None:
            t = np.matmul(a, t.reshape(*lead, n1, n2 * m))
        if b is not None:
            t = np.matmul(b, t.reshape(*lead, self.p1, n2, m))
        t = t.reshape(*lead, self.rows, m)
        return t if c is None else t @ c

    def _remap(self, v: np.ndarray, axis: int) -> np.ndarray:
        """The planned monomial map along axis of v: out[..., i, ...] =
        val[i] v[..., src[i], ...], a copy."""
        if self.src is None:
            return v.copy() if self.scale is None else v * self.scale
        out = np.take(v, self.src, axis=axis).astype(np.result_type(v.dtype, self.dtype), copy=False)
        if self.scale is not None:
            out *= self.scale
        return out


def _monomial(factors: list) -> tuple[np.ndarray, np.ndarray] | None:
    """kron of the factors as one monomial map, (src, val) with the one
    nonzero entry of row i at column src[i], of value val[i]; a zero row
    has val[i] = 0, so it maps to 0. An int k stands for the identity of
    size k. None when a factor has a row with more than one nonzero entry."""
    src, val = np.zeros(1, dtype=int), np.ones(1)
    for f in factors:
        if isinstance(f, int):
            col, width, entry = np.arange(f), f, np.ones(f)
        else:
            # the nonzero entries in row order: one per row, or some rows
            # with none (column 0, value 0) or with several (not monomial)
            rows, col = np.nonzero(f)
            at, width = np.arange(len(f)), f.shape[1]
            if rows.size != len(f) or (rows != at).any():
                if (rows[1:] == rows[:-1]).any():
                    return None
                full = np.zeros(len(f), dtype=int)
                full[rows] = col
                col = full
            entry = f[at, col]
        src = (src[:, None] * width + col).ravel()
        val = (val[:, None] * entry).ravel()
    return src, val


def axiom_residuals(c: np.ndarray, s: np.ndarray, u: np.ndarray,
                    tau: np.ndarray) -> dict[str, float]:
    """Frobenius norms of the axiom residuals over all basis pairs and
    triples of the algebra with structure constants c, star s, unit u and
    trace tau: associativity, the unit, the star's antimultiplicativity
    and involutivity, and the trace's unit value and trace property.

    The associativity residual is summed one i-slab at a time, n^3 entries
    per slab."""
    n = len(u)
    eye = np.eye(n)
    # (b_i b_j) b_k, indexed (j, k, q), against b_i (b_j b_k), for each i
    assoc2 = 0.0
    for ci in c:
        slab = (ci @ c.reshape(n, n * n)).reshape(n * n, n) - c.reshape(n * n, n) @ ci
        assoc2 += np.vdot(slab, slab).real
    pairs = c @ tau
    return {
        "associativity": float(np.sqrt(assoc2)),
        "unit": max(frob(u @ c.transpose(1, 0, 2) - eye), frob(u @ c - eye)),
        # (b_i b_j)* against b_j* b_i*
        "involution": frob(np.conj(c) @ s.T - np.matmul(
            s.T, (s.T @ c.reshape(n, n * n)).reshape(n, n, n)).transpose(1, 0, 2)),
        "involutive": frob(s @ np.conj(s) - eye),
        "trace_unit": abs(complex(tau @ u) - 1.0),
        "trace_cyclic": frob(pairs - pairs.T),
    }


def _new_span(span: np.ndarray, cand: np.ndarray) -> np.ndarray:
    """Orthonormal columns spanning what the columns of cand add to the
    orthonormal columns of span: their part off span (projected twice, so
    that it stays orthogonal), cut by rank_split."""
    for _ in range(2):
        cand = cand - span @ (span.conj().T @ cand)
    u, s, _ = np.linalg.svd(cand, full_matrices=False)
    return u[:, : rank_split(s)]


def close_span(span: np.ndarray, letters: list[np.ndarray], cand: np.ndarray) -> np.ndarray:
    """Orthonormal columns spanning the orthonormal columns of span, what
    the columns of cand add to them, and every product of the matrices
    letters with those: the smallest span holding both that is closed
    under left multiplication by the letters. Each step multiplies only
    the directions the last step added and keeps what they add
    (_new_span); span itself comes first, unchanged."""
    n = span.shape[0]
    new = _new_span(span, cand)
    while new.shape[1]:
        span = np.hstack([span, new])
        if span.shape[1] == n or not letters:
            break
        new = _new_span(span, np.hstack([m @ new for m in letters]))
    return span


def _outside(span: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    """Which unit columns of dirs lie off the span of the orthonormal
    columns span: one rank_split on their distances to it."""
    dist = np.linalg.norm(dirs - span @ (span.conj().T @ dirs), axis=0)
    top = np.sort(dist)[::-1]
    kept = rank_split(top)
    return dist >= top[kept - 1] if kept else np.zeros(dist.shape, dtype=bool)


def certify_exact(alg: FDAlgebra) -> None:
    """Raise InexactAlgebra if an axiom residual of onb_residuals exceeds
    EXACT_BOUND."""
    name, worst = max(alg.onb_residuals.items(), key=lambda kv: kv[1])
    if not worst <= EXACT_BOUND:
        raise InexactAlgebra(
            f"{alg.label or 'algebra'}: {name} residual {worst:.3e} in GNS-orthonormal "
            f"coordinates exceeds the exactness bound {EXACT_BOUND:g}"
        )


@dataclass
class ValidationReport:
    label: str
    residuals: dict[str, float]
    gram_min_eig: float
    passed: bool

    def worst(self) -> tuple[str, float]:
        name = max(self.residuals, key=self.residuals.get)
        return name, self.residuals[name]

    def faults(self) -> str:
        """The failed conditions, "; "-joined; empty when none failed."""
        axiom, worst = self.worst()
        out = []
        if not worst <= VALID_TOL:
            out.append(f"worst axiom: {axiom}")
        if not self.gram_min_eig > VALID_TOL:
            out.append(f"trace not faithful: minimum Gram eigenvalue {self.gram_min_eig:.3e}")
        return "; ".join(out)


def validate(alg: FDAlgebra) -> ValidationReport:
    """Check the axioms numerically on the raw structure constants
    (axiom_residuals), the trace's hermiticity and faithfulness (Gram
    positive definite), each against VALID_TOL."""
    s, t = alg.star, alg.trace
    res = axiom_residuals(alg.mult, s, alg.unit, t)
    # tau(x*) = conj(tau(x)) keeps the state hermitian
    res["trace_hermitian"] = frob(np.conj(s.T @ t) - t)

    g = np.einsum("ai,ajk,k->ij", s, alg.mult, t)
    res["gram_hermitian"] = frob(g - g.conj().T)
    mineig = float(np.linalg.eigvalsh(0.5 * (g + g.conj().T)).min())

    passed = all(v <= VALID_TOL for v in res.values()) and mineig > VALID_TOL
    return ValidationReport(alg.label, res, mineig, passed)
