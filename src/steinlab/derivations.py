"""Derivation spaces of finite-dimensional tracial *-algebras.

A derivation is a linear map d : A -> L^2(N), N = A (x) A^op, with
d(xy) = x . d(y) + d(x) . y, where the bimodule action is
x . v . y = (x (x) y^op) v.

One convention throughout, the one vndim uses. A vector of L^2(N) has the
coordinate of b_a (x) b_b^op at flat index a * n + b (n = dim A), so it is
an (n, n) tensor with one axis per tensor leg, and x (x) y^op has the
coordinates kron(x, y). A derivation is the (n^2, m) matrix whose column j
is d(x_j) for m arguments x_j, i.e. an (n, n, m) tensor; derivations are
handled as stacks (r, n^2, m). Every operator on L^2(N) is a kron factor
pair (a, b) standing for kron(a, b), one (n, n) factor per leg, None for
an identity leg: x (x) y^op acts by (left_mult(x), right_mult(y)) on the
left and by (right_mult(x), left_mult(y)) on the right, and the GNS metric
is whitened by (T, T), T = A.onb_factor. apply_pair contracts a pair into
a stack leg by leg; no (n^2, n^2) operator matrix is formed. Kernels are
solved for whitened values and mapped back by (T^-1, T^-1).
derivation_space builds the Leibniz equations only for the arguments of a
generating set, which have the same kernel (see leibniz_system). A
DerivationSpace has one representation: its whitened orthonormal basis in
the unknowns of leibniz_system, kept by block (a BlockKernel), as
nullspace returns it for derivation_space and as span_basis keeps it for
relative_derivations, which solves its constraints on that kernel. It is
mapped back to raw coordinates only when a caller reads the basis: vndim
reads the dimension of phi_X, X the basis, from the kernel itself.
derivation_space first certifies that the algebra is exact
(algebra.certify_exact), since that readout backs no number for an
inexact one.

Every function takes the FDAlgebra whose module it acts on, or, for the
crossed-product maps, the CrossedProduct A x| G. Those act on the coset
sectors L^2(N)(u_g (x) u_h^op), conjugate by the group elements, and move
derivations between A and A x| G.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

# no program code calls gram_onb; the name stays bound only because
# benchmark/tracing.py hooks steinlab.derivations.gram_onb, and goes with that hook
from ._linalg import (  # noqa: F401
    BlockKernel, SparseSystem, frob, gram_onb, nullspace, span_basis,
)
from .algebra import FDAlgebra, certify_exact
from .constructions import CrossedProduct, subalgebra_generate, span_equal
from .errors import NotSubalgebra, UnitsInvalid


def apply_pair(pair: tuple, v: np.ndarray) -> np.ndarray:
    """kron(a, b) for the factor pair (a, b), None an identity leg,
    applied to a stack v of shape (..., n^2, m): the L^2(N) axis is read
    as the two legs (n, n) and each factor contracts its leg."""
    a, b = pair
    *lead, nn, m = v.shape
    n = math.isqrt(nn)
    t = v
    if a is not None:
        t = np.matmul(a, t.reshape(*lead, n, n * m))
    if b is not None:
        t = np.matmul(b, t.reshape(*lead, n, n, m))
    return t.reshape(v.shape)


def whiten(alg: FDAlgebra, v: np.ndarray) -> np.ndarray:
    """A stack (..., n^2, m) in GNS-orthonormal coordinates, where the GNS
    inner product of L^2(N) is the standard one."""
    return apply_pair((alg.onb_factor, alg.onb_factor), v)


def leibniz_residual(alg: FDAlgebra, mats: np.ndarray) -> np.ndarray:
    """Largest GNS norm of d(b_i b_j) - b_i . d(b_j) - d(b_i) . b_j over
    basis pairs, for each derivation of a stack (..., n^2, n): the rows of
    leibniz_system applied to its whitened values."""
    mats = np.asarray(mats)
    n = alg.dim
    res = leibniz_system(alg).dot(whiten(alg, mats).reshape(*mats.shape[:-2], n**3))
    return np.linalg.norm(res.reshape(*mats.shape[:-2], n * n, n * n), axis=-2).max(axis=-1)


def restricted_norm(alg: FDAlgebra, mats: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Largest GNS image norm over the argument vectors cols, for each
    derivation of a stack (..., n^2, n)."""
    img = whiten(alg, np.asarray(mats) @ cols)
    return np.linalg.norm(img, axis=-2).max(axis=-1, initial=0.0)


def commutator_span(alg: FDAlgebra, xs: np.ndarray, xis: np.ndarray) -> np.ndarray:
    """x . xi - xi . x for every column x of xs (elements of A) and xi of
    xis (vectors of L^2(N), shape (n^2, m)), shape (len x, n^2, m): block k
    holds the values at x_k of the inner derivations [., xi]. With xis the
    identity it is the matrix of xi -> ([x_k, xi])_k.
    """
    xs = np.asarray(xs, dtype=complex)
    xis = np.asarray(xis, dtype=complex)
    out = np.empty((xs.shape[1], *xis.shape), dtype=complex)
    for k, x in enumerate(xs.T):
        left = apply_pair((alg.left_mult(x), None), xis)
        np.subtract(left, apply_pair((None, alg.right_mult(x)), xis), out=out[k])
    return out


def leibniz_system(alg: FDAlgebra, rows: np.ndarray | None = None) -> SparseSystem:
    """Linear system whose kernel is the space of derivations, in
    GNS-orthonormal leg coordinates.

    Unknown is the row-major vec of the (dim N, dim A) matrix (T (x) T) D,
    T = alg.onb_factor, entry at q * dim A + k. Equation (p, i, j) is
    component p of (T (x) T) applied to
    d(b_i b_j) - b_i . d(b_j) - d(b_i) . b_j = 0, so <., .>_X is the
    standard inner product of unknowns and a row norm is a GNS norm.

    rows lists the basis indices i whose equations are built, S, all of
    them by default; equation (p, i, j) with i = rows[s] is at row
    (p * |S| + s) * dim A + j. When the words in S (products of one or
    more elements b_s, s in S) span A, as for alg.generating_indices, the
    kernel is the same as the full system's. For a fixed linear d, the x
    with d(xy) = x . d(y) + d(x) . y for every y form a subspace L, and L
    is closed under products: for x1, x2 in L and every y,
        d(x1 x2 y) = x1 . d(x2 y) + d(x1) . x2 y
                   = x1 x2 . d(y) + (x1 . d(x2) + d(x1) . x2) . y
                   = x1 x2 . d(y) + d(x1 x2) . y,
    by the rule for x1 at x2 y, then for x2 at y and the bimodule laws,
    and last for x1 at x2. So S in L puts every word in S in L, hence
    L = A: no equation is needed for the unit or for the stars of S.

    left_mult(b_x)[z, y] and right_mult(b_y)[z, x] both equal
    mult[x, y, z]; the bimodule actions are krons with the identity of
    T left_mult(b_x) T^-1 and T right_mult(b_y) T^-1. When T is diagonal,
    as in a monomial basis (matrix units, b u_g), these keep the zero
    pattern of mult, each term is a permutation pattern, and nullspace
    splits the system into many small blocks; rows that are basis indices
    keep that pattern.
    """
    n = alg.dim
    sel = np.arange(n) if rows is None else np.asarray(rows)
    m = sel.size
    t, t_inv = alg.onb_factor, alg.onb_inverse
    # the whitened operators, indexed [x, y, z] as mult is; entries sit on
    # the union of the three nonzero patterns
    lw = (t @ alg.mult.transpose(0, 2, 1) @ t_inv).transpose(0, 2, 1)
    rw = (t @ alg.mult.transpose(1, 2, 0) @ t_inv).transpose(2, 0, 1)
    pattern = (alg.mult != 0) | (lw != 0) | (rw != 0)
    # every triple, and the triples with x = sel[r]
    x, y, z = (ax[:, None, None] for ax in np.nonzero(pattern))
    r, yr, zr = (x, y, z) if rows is None else (
        ax[:, None, None] for ax in np.nonzero(pattern[sel]))
    xr = sel[r]
    a = np.arange(n)[:, None]  # free index on one tensor leg of N
    b = np.arange(n)  # free index on A
    p = a * n + b  # every index of N
    one, three = (r.size, n, n), (x.size, n, m)
    terms = [
        # d(b_x b_y) = sum_z mult[x, y, z] d(b_z): row (p, x, y), column (p, z)
        (one, (p * m + r) * n + yr, p * n + zr, alg.mult[xr, yr, zr]),
        # b_x . d(b_b), through T left_mult(b_x) T^-1 (x) 1: row (za, x, b), column (ya, b)
        (one, ((zr * n + a) * m + r) * n + b, (yr * n + a) * n + b, -lw[xr, yr, zr]),
        # d(b_i) . b_y for every i in sel, through 1 (x) T right_mult(b_y) T^-1:
        # row (az, i, y), column (ax, i)
        (three, ((a * n + z) * m + np.arange(m)) * n + y, (a * n + x) * n + sel, -rw[x, y, z]),
    ]
    # each term broadcast into its slice of the entry arrays
    size = sum(math.prod(term[0]) for term in terms)
    at, cols = np.empty(size, dtype=int), np.empty(size, dtype=int)
    vals = np.empty(size, dtype=complex)
    start = 0
    for shape, *parts in terms:
        stop = start + math.prod(shape)
        for out, part in zip((at, cols, vals), parts):
            out[start:stop].reshape(shape)[...] = part
        start = stop
    return SparseSystem((n * n * m * n, n**3), at, cols, vals)


class DerivationSpace:
    """Span of derivations of algebra with a basis orthonormal for
    <., .>_X, X the basis of A: <d1, d2>_X = sum_j <d1(b_j), d2(b_j)>.

    kernel holds that basis whitened, in the unknowns of leibniz_system,
    by block (a BlockKernel); basis, (r, dim N, dim A) in raw coordinates,
    is formed from it only when it is read (kernel_basis), once, and
    columns reads a few of its derivations without forming it.
    """

    def __init__(self, algebra: FDAlgebra, kernel: BlockKernel):
        self.algebra = algebra
        self.kernel = kernel

    @cached_property
    def basis(self) -> np.ndarray:
        return kernel_basis(self.algebra, self.kernel)

    def columns(self, idx) -> np.ndarray:
        """basis[idx], for idx any numpy index of the derivations, read
        from the kernel blocks that hold them; basis is neither formed nor
        cached."""
        return kernel_basis(self.algebra, self.kernel, idx)

    @property
    def rank(self) -> int:
        return self.kernel.shape[1]


def kernel_basis(alg: FDAlgebra, kernel: BlockKernel, idx=slice(None)) -> np.ndarray:
    """The derivations idx (all by default) of a kernel of leibniz_system,
    (count, dim N, dim A) in raw coordinates: the whitened values, read by
    BlockKernel.vectors, mapped back by (T^-1, T^-1). Each derivation is
    contiguous, so it is mapped back by the same products whichever others
    are read with it."""
    n = alg.dim
    back = (alg.onb_inverse, alg.onb_inverse)
    w = kernel.vectors(idx)
    return apply_pair(back, w.reshape(len(w), n * n, n))


def derivation_space(alg: FDAlgebra) -> DerivationSpace:
    """All derivations of A, solved from the Leibniz system on the rows of
    a generating set, with a basis orthonormal for <., .>_X, X the basis
    of A.

    The rows are the equations d(b_i b_j) = b_i . d(b_j) + d(b_i) . b_j
    for i in S = alg.generating_indices and every j. The words in S span
    A, and the x satisfying the rule for every y form a subalgebra (proof
    in leibniz_system), so these rows have the kernel of the full system.

    Raises InexactAlgebra unless A passes algebra.certify_exact: for an
    inexact algebra the solve would return the derivations of a nearby
    wrong one. The system is solved block by block; blocks whose dense
    SVDs would allocate more than _linalg.DENSE_LIMIT bytes raise
    DenseLimitExceeded before any of it is allocated, and
    inner_derivation_module is the route for such algebras. The unknowns
    are whitened, so nullspace's orthonormal kernel, mapped back by
    (T^-1, T^-1) on the legs of N, is orthonormal for <., .>_X. The space
    keeps that kernel by block and maps it back only when its basis is
    read.
    """
    certify_exact(alg)
    return DerivationSpace(alg, nullspace(leibniz_system(alg, alg.generating_indices)))


def central_vectors(alg: FDAlgebra, sub_cols: np.ndarray) -> np.ndarray:
    """GNS-orthonormal basis of {v in N : b . v = v . b for all b in the span},
    solved for w = (T (x) T) v: the commutators of kron(T^-1, T^-1)."""
    back = (alg.onb_inverse, alg.onb_inverse)
    rows = commutator_span(alg, np.asarray(sub_cols), np.kron(*back))
    return apply_pair(back, nullspace(rows.reshape(-1, alg.dim**2)).dense())


def relative_derivations(
    space: DerivationSpace, sub_cols: np.ndarray, check_subalgebra: bool = True
) -> DerivationSpace:
    """Subspace of derivations vanishing on a unital *-subalgebra, solved
    on the whitened kernel.

    With w_r the whitened kernel vectors as (dim N, dim A) matrices, the
    whitened value of d = sum_r c_r d_r at s is sum_r c_r w_r s, so the
    constraints d(s) = 0 for the columns s of sub_cols are linear in c;
    nullspace solves them per group of kernel blocks that they couple.
    Orthonormal combinations of an orthonormal basis are orthonormal, and
    span_basis keeps them by block.
    """
    alg = space.algebra
    sub_cols = np.asarray(sub_cols, dtype=complex)
    if check_subalgebra:
        closure = subalgebra_generate(alg, list(sub_cols.T))
        if not span_equal(alg, closure, sub_cols):
            raise NotSubalgebra("span is not a unital *-subalgebra")
    if space.rank == 0:
        return space
    n, r = alg.dim, space.rank
    w = space.kernel.dense()
    con = sub_cols.T @ w.reshape(n * n, n, r)  # (dim N, sub, r)
    combos = nullspace(con.reshape(-1, r)).dense()
    return DerivationSpace(alg, span_basis(w @ combos))


# -- matrix-unit central projection -------------------------------------------

def central_projection_element(alg: FDAlgebra, units: list[np.ndarray]) -> tuple[np.ndarray, list]:
    """Element p = sum_i n_i^-1 sum_jk e^(i)_jk (x) (e^(i)_kj)^op and its
    left multiplication on L^2(N), as a list of kron factor pairs whose
    sum it is (one per matrix unit).

    The units argument lists one (n_i, n_i, dim) array of coordinate vectors
    per block; they must satisfy the matrix-unit relations and sum to 1.
    Left multiplication by p is the orthogonal projection onto the vectors
    commuting with the span of the units.
    """
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
    p = np.zeros(alg.dim**2, dtype=complex)
    left = []
    for arr in units:
        n = arr.shape[0]
        for j in range(n):
            for k in range(n):
                p += np.kron(arr[j, k], arr[k, j]) / n
                left.append((alg.left_mult(arr[j, k]) / n, alg.right_mult(arr[k, j])))
    return p, left


# -- scaling conjugation (covariance) -----------------------------------------
#
# These take stacks (..., n^2, n) of derivation matrices of A x| G.

def scaling_conjugation(cp: CrossedProduct, g: int, mats: np.ndarray) -> np.ndarray:
    """The conjugated derivations x -> u_g* . d(u_g x u_g*) . u_g."""
    lu, ru = cp.u_mult
    return apply_pair((lu[cp.group.inv(g)], ru[g]), mats) @ cp.ad(g)


def average_scaling(cp: CrossedProduct, mats: np.ndarray) -> np.ndarray:
    """Group average of the scaling conjugations; lands on the derivations
    vanishing on the copy of C[G]."""
    k = cp.group.order
    return sum(scaling_conjugation(cp, g, mats) for g in range(k)) / k


def covariance_defect(cp: CrossedProduct, mats: np.ndarray) -> np.ndarray:
    """Largest Frobenius deviation of each derivation from its scaling
    conjugates, relative to max(1, its Frobenius norm)."""
    mats = np.asarray(mats)
    worst = np.zeros(mats.shape[:-2])
    for g in range(cp.group.order):
        dev = np.linalg.norm(scaling_conjugation(cp, g, mats) - mats, axis=(-2, -1))
        worst = np.maximum(worst, dev)
    return worst / np.maximum(1.0, np.linalg.norm(mats, axis=(-2, -1)))


# -- extension and restriction --------------------------------------------------

def extend_vanishing(cp: CrossedProduct, mats: np.ndarray, h: int) -> np.ndarray:
    """Extensions of derivations of A (a stack (..., dim_A^2, dim_A)) to
    derivations of A x| G vanishing on C[G], landing in the sectors with
    right group index h.

    On b u_m the value is sum_g (u_{g^-1} (x) (u_{g m})^op) . d(alpha_g(b)),
    pushed right by u_e (x) u_h^op: one contraction for every argument
    b_j u_m at once, summed over g, with the leg factors left_mult(u_{g^-1})
    and left_mult(u_h) right_mult(u_{g m}) restricted to the (e, e) sector,
    where A (x) A^op sits.
    """
    grp = cp.group
    k, nb, n = grp.order, cp.base.dim, cp.algebra.dim
    lu, ru = cp.u_mult
    left = lu[grp.inverse] @ cp.embed_base  # (g, n, nb)
    right = lu[h] @ ru[grp.table] @ cp.embed_base  # (g, m, n, nb)
    mats = np.asarray(mats)
    lead = mats.shape[:-2]
    # d(alpha_g(b_j)) on both base legs: (..., g, i, i', j)
    vals = (mats[..., None, :, :] @ cp.action.matrices).reshape(*lead, k, nb, nb, nb)
    out = np.einsum("gpi,gmqk,...gikj->...pqjm", left, right, vals, optimize=True)
    return out.reshape(*lead, n * n, n)


def restrict_component(cp: CrossedProduct, mats: np.ndarray, g: int, h: int) -> np.ndarray:
    """Component D_{g,h} of derivations of A x| G (a stack (..., n^2, n)),
    as derivations of A.

    Cuts d|_A to the coset sector L^2(N)(u_g (x) u_h^op), the basis vectors
    whose left leg has group index g and whose right leg has group index h,
    and pulls it back to the (e, e) sector, i.e. to the standard
    A-bimodule, by right multiplication with u_{g^-1} (x) (u_{h^-1})^op;
    its leg factors right_mult(u_{g^-1}) and left_mult(u_{h^-1}) are
    applied restricted to the two sectors.
    """
    grp = cp.group
    n, nb = cp.algebra.dim, cp.base.dim
    rows, cols = cp.group_index == g, cp.group_index == h
    centre = cp.group_index == grp.identity
    lu, ru = cp.u_mult
    pull = (ru[grp.inv(g)][np.ix_(centre, rows)], lu[grp.inv(h)][np.ix_(centre, cols)])
    mats = np.asarray(mats)
    lead = mats.shape[:-2]
    vals = (mats @ cp.embed_base).reshape(*lead, n, n, nb)
    cut = vals[..., rows, :, :][..., cols, :]
    return apply_pair(pull, cut.reshape(*lead, nb * nb, nb))


def decompose_vanishing(cp: CrossedProduct, mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split each derivation D of a stack (r, n^2, n) vanishing on C[G]
    into its components D_h := D_{e,h}, (r, |G|, dim_A^2, dim_A), and return
    them with the residual |D - sum_h (D_h)^h| of each derivation."""
    e, k = cp.group.identity, cp.group.order
    comps = np.stack([restrict_component(cp, mats, e, h) for h in range(k)], axis=1)
    back = sum(extend_vanishing(cp, comps[:, h], h) for h in range(k))
    return comps, np.linalg.norm(back - mats, axis=(1, 2))
