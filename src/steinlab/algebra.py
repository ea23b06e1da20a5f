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

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._linalg import frob, rank_split
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

    def left_mult(self, m: np.ndarray) -> np.ndarray:
        """Matrix of x -> m x."""
        return np.tensordot(m, self.mult, axes=(0, 0)).T

    def right_mult(self, m: np.ndarray) -> np.ndarray:
        """Matrix of x -> x m."""
        return np.tensordot(self.mult, m, axes=(1, 0)).T

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
            # T left_mult(b_i) T^-1, left_mult(b_i) = mult[i]^T
            left = t @ self.mult[i].T @ self.onb_inverse
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
