"""Derivation spaces of finite-dimensional tracial *-algebras.

A derivation is a linear map d : A -> L^2(N), N = A (x) A^op, with
d(xy) = x . d(y) + d(x) . y, where the bimodule action is
x . v . y = (x (x) y^op) v.

One convention throughout, the one vndim uses. A vector of L^2(N) has the
coordinate of b_a (x) b_b^op at flat index a * n + b (n = dim A), so it is
an (n, n) tensor with one axis per tensor leg. A derivation is the
(n^2, m) matrix whose column j is d(x_j) for m arguments x_j, i.e. an
(n, n, m) tensor; derivations are handled as stacks (r, n^2, m). Every
operator on L^2(N) is a kron factor pair (a, b) standing for kron(a, b),
one (n, n) factor per leg, None for an identity leg: x (x) y^op acts by
(left_mult(x), right_mult(y)) on the left and by (right_mult(x),
left_mult(y)) on the right, and the GNS metric is whitened by
(T, T), T = A.onb_factor. Bimodule.apply contracts a pair into a stack leg
by leg; no (n^2, n^2) operator matrix is formed.

For crossed products A x| G the module carries extra structure: the coset
sectors L^2(N)(u_g (x) u_h^op), a scaling conjugation by each group
element, and extension/restriction maps moving derivations between A and
A x| G. All of that lives in CrossedContext.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._linalg import SparseSystem, frob, gram_onb, nullspace
from .algebra import FDAlgebra
from .constructions import CrossedProduct, subalgebra_generate, span_equal
from .errors import NotSubalgebra, UnitsInvalid

# most unknowns in one connected block of the Leibniz system that the dense
# per-block SVD takes on; a basis with no zero structure is a single block of
# dim^3 unknowns and reaches it at dim 12, matrix-unit bases stay far below
_DENSE_LIMIT = 1600


class Bimodule:
    """L^2(A (x) A^op) with its two-sided A-action, in kron coordinates.

    The element a (x) b^op sits at flat index a * dim + b, i.e. its
    coordinate vector is kron(a, b).
    Operators are kron factor pairs applied by apply; neither the
    structure constants of A (x) A^op nor any operator matrix on it is
    materialized.
    """

    def __init__(self, alg: FDAlgebra):
        self.algebra = alg
        self.dim = alg.dim * alg.dim

    @cached_property
    def unit(self) -> np.ndarray:
        return np.kron(self.algebra.unit, self.algebra.unit)

    def embed(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Coordinates of x (x) y^op."""
        return np.kron(x, y)

    def apply(self, pair: tuple, v: np.ndarray) -> np.ndarray:
        """kron(a, b) for the factor pair (a, b), None an identity leg,
        applied to a stack v of shape (..., n^2, m): the L^2(N) axis is
        read as the two legs (n, n) and each factor contracts its leg."""
        a, b = pair
        n = self.algebra.dim
        *lead, _, m = v.shape
        t = v
        if a is not None:
            t = np.matmul(a, t.reshape(*lead, n, n * m))
        if b is not None:
            t = np.matmul(b, t.reshape(*lead, n, n, m))
        return t.reshape(v.shape)

    def whiten(self, v: np.ndarray) -> np.ndarray:
        """A stack (..., n^2, m) in GNS-orthonormal coordinates, where the
        GNS inner product of L^2(N) is the standard one."""
        t = self.algebra.onb_factor
        return self.apply((t, t), v)

    @cached_property
    def leibniz_system(self) -> SparseSystem:
        """The Leibniz system of the algebra (see leibniz_system), built
        once per bimodule: it depends only on the algebra."""
        return leibniz_system(self)


def leibniz_residual(bim: Bimodule, mats: np.ndarray) -> np.ndarray:
    """Largest GNS norm of d(b_i b_j) - b_i . d(b_j) - d(b_i) . b_j over
    basis pairs, for each derivation of a stack (..., n^2, n): the rows of
    leibniz_system applied to it."""
    mats = np.asarray(mats)
    n = bim.algebra.dim
    res = bim.leibniz_system.dot(mats.reshape(*mats.shape[:-2], bim.dim * n))
    res = bim.whiten(res.reshape(*mats.shape[:-2], bim.dim, n * n))
    return np.linalg.norm(res, axis=-2).max(axis=-1)


def restricted_norm(bim: Bimodule, mats: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Largest GNS image norm over the argument vectors cols, for each
    derivation of a stack (..., n^2, n)."""
    img = bim.whiten(np.asarray(mats) @ cols)
    return np.linalg.norm(img, axis=-2).max(axis=-1, initial=0.0)


def commutator_span(bim: Bimodule, xs: np.ndarray, xis) -> np.ndarray:
    """x . xi - xi . x for every column x of xs (elements of A) and xi of
    xis, shape (len x, n^2, len xi): block k holds the values at x_k of the
    inner derivations [., xi].

    xis is an (n^2, m) array of vectors of L^2(N), or a factor pair
    (va, vb) of (n, n) matrices standing for the n^2 columns of
    kron(va, vb), which is never formed: then x . xi - xi . x is
    kron(left_mult(x) va, vb) - kron(va, right_mult(x) vb). With the pair
    (1, 1) it is the matrix of xi -> ([x_k, xi])_k.
    """
    alg = bim.algebra
    xs = np.asarray(xs, dtype=complex)
    if isinstance(xis, tuple):
        va, vb = (np.asarray(v, dtype=complex) for v in xis)
        n = alg.dim
        out = np.empty((xs.shape[1], n, n, n, n), dtype=complex)
        for k, x in enumerate(xs.T):
            legs_a = np.stack([alg.left_mult(x) @ va, va])
            legs_b = np.stack([vb, -alg.right_mult(x) @ vb])
            np.einsum("tai,tbj->abij", legs_a, legs_b, out=out[k])
        return out.reshape(xs.shape[1], bim.dim, bim.dim)
    xis = np.asarray(xis, dtype=complex)
    out = np.empty((xs.shape[1], *xis.shape), dtype=complex)
    for k, x in enumerate(xs.T):
        left = bim.apply((alg.left_mult(x), None), xis)
        np.subtract(left, bim.apply((None, alg.right_mult(x)), xis), out=out[k])
    return out


def leibniz_system(bim: Bimodule) -> SparseSystem:
    """Linear system whose kernel is the space of derivations.

    Unknown is the row-major vec of the (dim N, dim A) matrix D, entry
    D[q, k] at q * dim A + k. Equation (p, i, j), at row
    (p * dim A + i) * dim A + j, is component p of
    d(b_i b_j) - b_i . d(b_j) - d(b_i) . b_j = 0.

    The entries come straight from the nonzeros mult[x, y, z] of the
    structure constants: left_mult(b_x)[z, y] and right_mult(b_y)[z, x]
    both equal mult[x, y, z], and the bimodule actions are krons of these
    with the identity. In a monomial basis (matrix units, b u_g) each of
    the three terms is a permutation pattern, so nullspace splits the
    system into many small blocks.
    """
    alg = bim.algebra
    n, nn = alg.dim, bim.dim
    x, y, z = (ax[:, None, None] for ax in np.nonzero(alg.mult))
    v = alg.mult[x, y, z]
    a = np.arange(n)[:, None]  # free index on one tensor leg of N
    b = np.arange(n)  # free index on A
    p = a * n + b  # every index of N
    terms = [
        # d(b_x b_y) = sum_z mult[x, y, z] d(b_z): row (p, x, y), column (p, z)
        ((p * n + x) * n + y, p * n + z, v),
        # b_x . d(b_b), through left_mult(b_x) (x) 1: row (za, x, b), column (ya, b)
        (((z * n + a) * n + x) * n + b, (y * n + a) * n + b, -v),
        # d(b_b) . b_y, through 1 (x) right_mult(b_y): row (az, b, y), column (ax, b)
        (((a * n + z) * n + b) * n + y, (a * n + x) * n + b, -v),
    ]
    rows, cols, vals = (
        np.concatenate([np.broadcast_to(t, (v.size, n, n)).ravel() for t in parts])
        for parts in zip(*terms)
    )
    return SparseSystem((nn * n * n, nn * n), rows, cols, vals)


@dataclass(eq=False)
class DerivationSpace:
    """Span of derivations with a basis orthonormal for <., .>_X, X the
    basis of A: <d1, d2>_X = sum_j <d1(b_j), d2(b_j)>."""

    bim: Bimodule
    basis: np.ndarray  # (r, dim N, dim A)

    @property
    def rank(self) -> int:
        return self.basis.shape[0]

    def pair(self, m1: np.ndarray, m2: np.ndarray) -> complex:
        # sum_j <d1(b_j), d2(b_j)>, linear in d1
        return complex(np.vdot(self.bim.whiten(m2), self.bim.whiten(m1)))


def _space_from_vecs(bim: Bimodule, vecs: np.ndarray) -> DerivationSpace:
    """Orthonormalize vec'd derivations for the <., .>_X metric.

    On row-major vecs, indexed (leg a, leg b, argument), <., .>_X has Gram
    matrix kron(gram, gram, 1): whitening factors (T, T) on the two legs of
    N and none on the argument axis.
    """
    alg = bim.algebra
    q = gram_onb(vecs, (alg.onb_factor, alg.onb_factor))
    return DerivationSpace(bim, q.T.reshape(-1, bim.dim, alg.dim))


def derivation_space(alg: FDAlgebra, bim: Bimodule | None = None) -> DerivationSpace:
    """All derivations of A, solved from the Leibniz system on every basis
    pair, with a basis orthonormal for <., .>_X, X the basis of A.

    The system is solved block by block; a connected block of more than
    _DENSE_LIMIT unknowns raises DenseLimitExceeded before any SVD, and
    inner_derivation_module is the route for such algebras.
    """
    bim = bim or Bimodule(alg)
    return _space_from_vecs(bim, nullspace(bim.leibniz_system, max_block=_DENSE_LIMIT))


def inner_derivations(alg: FDAlgebra, bim: Bimodule | None = None) -> DerivationSpace:
    """Span of the commutator derivations [., xi], xi in N."""
    bim = bim or Bimodule(alg)
    span = commutator_span(bim, np.eye(alg.dim), (np.eye(alg.dim), np.eye(alg.dim)))
    # (argument, N, xi) to row-major derivation vecs (N, argument) per xi
    return _space_from_vecs(bim, span.transpose(1, 0, 2).reshape(-1, bim.dim))


def central_vectors(alg: FDAlgebra, sub_cols: np.ndarray, bim: Bimodule | None = None) -> np.ndarray:
    """GNS-orthonormal basis of {v in N : b . v = v . b for all b in the span}."""
    bim = bim or Bimodule(alg)
    eye = np.eye(alg.dim)
    rows = commutator_span(bim, np.asarray(sub_cols), (eye, eye))
    return gram_onb(nullspace(rows.reshape(-1, bim.dim)), (alg.onb_factor, alg.onb_factor))


def relative_derivations(
    space: DerivationSpace, sub_cols: np.ndarray, check_subalgebra: bool = True
) -> DerivationSpace:
    """Subspace of derivations vanishing on a unital *-subalgebra."""
    alg = space.bim.algebra
    sub_cols = np.asarray(sub_cols, dtype=complex)
    if check_subalgebra:
        closure = subalgebra_generate(alg, list(sub_cols.T))
        if not span_equal(alg, closure, sub_cols):
            raise NotSubalgebra("span is not a unital *-subalgebra")
    if space.rank == 0:
        return space
    con = space.basis @ sub_cols
    combos = nullspace(con.reshape(space.rank, -1).T)
    basis = np.einsum("rm,rpj->mpj", combos, space.basis)
    return DerivationSpace(space.bim, basis)


# -- matrix-unit central projection -------------------------------------------

def central_projection_element(
    alg: FDAlgebra, units: list[np.ndarray], bim: Bimodule | None = None
) -> tuple[np.ndarray, list]:
    """Element p = sum_i n_i^-1 sum_jk e^(i)_jk (x) (e^(i)_kj)^op and its
    left multiplication on L^2(N), as a list of kron factor pairs whose
    sum it is (one per matrix unit).

    The units argument lists one (n_i, n_i, dim) array of coordinate vectors
    per block; they must satisfy the matrix-unit relations and sum to 1.
    Left multiplication by p is the orthogonal projection onto the vectors
    commuting with the span of the units.
    """
    bim = bim or Bimodule(alg)
    tol = 1e-8
    if any(arr.shape[:2] != (arr.shape[0],) * 2 for arr in units):
        raise UnitsInvalid("unit array must be square in its first two axes")
    # every unit e_jk in block order, and the transposed units e_kj
    flat = np.concatenate([arr.reshape(-1, alg.dim) for arr in units])
    flat_t = np.concatenate([arr.transpose(1, 0, 2).reshape(-1, alg.dim) for arr in units])
    if np.linalg.norm(flat.conj() @ alg.star.T - flat_t, axis=1).max() > tol:
        raise UnitsInvalid("star does not transpose the units")
    if frob(sum(np.einsum("jji->i", arr) for arr in units) - alg.unit) > tol:
        raise UnitsInvalid("units do not sum to the identity")
    # e_jk e_lm = delta_kl e_jm within a block, 0 across blocks
    want = np.zeros((len(flat), len(flat), alg.dim), dtype=complex)
    off = 0
    for arr in units:
        m = arr.shape[0] ** 2
        want[off : off + m, off : off + m] = np.einsum(
            "kl,jmi->jklmi", np.eye(arr.shape[0]), arr
        ).reshape(m, m, -1)
        off += m
    prods = np.einsum("ai,bj,ijk->abk", flat, flat, alg.mult)
    if np.linalg.norm(prods - want, axis=2).max() > tol:
        raise UnitsInvalid("matrix unit relations fail")
    p = np.zeros(bim.dim, dtype=complex)
    left = []
    for arr in units:
        n = arr.shape[0]
        for j in range(n):
            for k in range(n):
                p += bim.embed(arr[j, k], arr[k, j]) / n
                left.append((alg.left_mult(arr[j, k]) / n, alg.right_mult(arr[k, j])))
    return p, left


# -- crossed-product context ---------------------------------------------------

class CrossedContext:
    """Derivation-level structure of a crossed product A x| G.

    The basis element b_i u_g of A x| G has group index g. The coset sector
    L^2(N)(u_g (x) u_h^op) is spanned by the basis vectors whose left leg
    has group index g and whose right leg has group index h, so a sector is
    a pair of masks, one per leg.
    """

    def __init__(self, cp: CrossedProduct):
        self.cp = cp
        self.big = Bimodule(cp.algebra)
        self.base = Bimodule(cp.base)
        self.group = cp.group
        self.group_index = np.arange(cp.algebra.dim) % self.group.order

    def coset_mask(self, g: int, h: int) -> tuple[np.ndarray, np.ndarray]:
        """Leg masks (left, right) of the sector L^2(N)(u_g (x) u_h^op)."""
        return self.group_index == g, self.group_index == h

    @cached_property
    def u_mult(self) -> tuple[np.ndarray, np.ndarray]:
        """(left_mult(u_g), right_mult(u_g)) for every g, each (|G|, n, n)."""
        alg = self.cp.algebra
        us = self.cp.embed_group.T
        return np.stack([alg.left_mult(u) for u in us]), np.stack([alg.right_mult(u) for u in us])

    def ad(self, g: int) -> np.ndarray:
        """Coordinate matrix of x -> u_g x u_g^-1 on the crossed product."""
        lu, ru = self.u_mult
        return lu[g] @ ru[self.group.inv(g)]


# -- scaling conjugation (covariance) -----------------------------------------
#
# These take stacks (..., n^2, n) of derivation matrices of A x| G.

def scaling_conjugation(ctx: CrossedContext, g: int, mats: np.ndarray) -> np.ndarray:
    """The conjugated derivations x -> u_g* . d(u_g x u_g*) . u_g."""
    lu, ru = ctx.u_mult
    return ctx.big.apply((lu[ctx.group.inv(g)], ru[g]), mats) @ ctx.ad(g)


def average_scaling(ctx: CrossedContext, mats: np.ndarray) -> np.ndarray:
    """Group average of the scaling conjugations; lands on the derivations
    vanishing on the copy of C[G]."""
    k = ctx.group.order
    return sum(scaling_conjugation(ctx, g, mats) for g in range(k)) / k


def covariance_defect(ctx: CrossedContext, mats: np.ndarray) -> np.ndarray:
    """Largest Frobenius deviation of each derivation from its scaling
    conjugates, relative to max(1, its Frobenius norm)."""
    mats = np.asarray(mats)
    worst = np.zeros(mats.shape[:-2])
    for g in range(ctx.group.order):
        dev = np.linalg.norm(scaling_conjugation(ctx, g, mats) - mats, axis=(-2, -1))
        worst = np.maximum(worst, dev)
    return worst / np.maximum(1.0, np.linalg.norm(mats, axis=(-2, -1)))


# -- extension and restriction --------------------------------------------------

def extend_vanishing(ctx: CrossedContext, mats: np.ndarray, h: int) -> np.ndarray:
    """Extensions of derivations of A (a stack (..., dim_A^2, dim_A)) to
    derivations of A x| G vanishing on C[G], landing in the sectors with
    right group index h.

    On b u_m the value is sum_g (u_{g^-1} (x) (u_{g m})^op) . d(alpha_g(b)),
    pushed right by u_e (x) u_h^op: one contraction for every argument
    b_j u_m at once, summed over g, with the leg factors left_mult(u_{g^-1})
    and left_mult(u_h) right_mult(u_{g m}) restricted to the (e, e) sector,
    where A (x) A^op sits.
    """
    cp, grp = ctx.cp, ctx.group
    k, nb, n = grp.order, cp.base.dim, cp.algebra.dim
    lu, ru = ctx.u_mult
    left = lu[grp.inverse] @ cp.embed_base  # (g, n, nb)
    right = lu[h] @ ru[grp.table] @ cp.embed_base  # (g, m, n, nb)
    mats = np.asarray(mats)
    lead = mats.shape[:-2]
    # d(alpha_g(b_j)) on both base legs: (..., g, i, i', j)
    vals = (mats[..., None, :, :] @ cp.action.matrices).reshape(*lead, k, nb, nb, nb)
    out = np.einsum("gpi,gmqk,...gikj->...pqjm", left, right, vals, optimize=True)
    return out.reshape(*lead, n * n, n)


def restrict_component(ctx: CrossedContext, mats: np.ndarray, g: int, h: int) -> np.ndarray:
    """Component D_{g,h} of derivations of A x| G (a stack (..., n^2, n)),
    as derivations of A.

    Cuts d|_A to the (g, h) sector and pulls it back to the (e, e) sector,
    i.e. to the standard A-bimodule, by right multiplication with
    u_{g^-1} (x) (u_{h^-1})^op; its leg factors right_mult(u_{g^-1}) and
    left_mult(u_{h^-1}) are applied restricted to the two sectors.
    """
    cp, grp = ctx.cp, ctx.group
    n, nb = cp.algebra.dim, cp.base.dim
    rows, cols = ctx.coset_mask(g, h)
    centre = ctx.group_index == grp.identity
    lu, ru = ctx.u_mult
    pull = (ru[grp.inv(g)][np.ix_(centre, rows)], lu[grp.inv(h)][np.ix_(centre, cols)])
    mats = np.asarray(mats)
    lead = mats.shape[:-2]
    vals = (mats @ cp.embed_base).reshape(*lead, n, n, nb)
    cut = vals[..., rows, :, :][..., cols, :]
    return ctx.base.apply(pull, cut.reshape(*lead, nb * nb, nb))


def vanishing_space(ctx: CrossedContext) -> DerivationSpace:
    """Derivations of A x| G vanishing on the copy of C[G]."""
    cp = ctx.cp
    full = derivation_space(cp.algebra, bim=ctx.big)
    return relative_derivations(full, cp.embed_group, check_subalgebra=False)


@dataclass(eq=False)
class VanishingDecomposition:
    """Per-h components of derivations vanishing on C[G], with the
    reassembly residual of each basis element."""

    ctx: CrossedContext
    space: DerivationSpace
    components: np.ndarray  # (r, |G|, dim_A^2, dim_A): components[r, h] = D_h
    residuals: np.ndarray

    @property
    def worst_residual(self) -> float:
        return float(self.residuals.max()) if self.residuals.size else 0.0


def decompose_vanishing(ctx: CrossedContext, space: DerivationSpace) -> VanishingDecomposition:
    """Split each basis derivation D into components D_h := D_{e,h} and verify
    D = sum_h (D_h)^h."""
    e, k = ctx.group.identity, ctx.group.order
    comps = np.stack([restrict_component(ctx, space.basis, e, h) for h in range(k)], axis=1)
    back = sum(extend_vanishing(ctx, comps[:, h], h) for h in range(k))
    residuals = np.linalg.norm(back - space.basis, axis=(1, 2))
    return VanishingDecomposition(ctx, space, comps, residuals)
