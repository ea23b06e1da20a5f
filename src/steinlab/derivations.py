"""Derivation spaces of finite-dimensional tracial *-algebras.

A derivation is a linear map d : A -> L^2(N), N = A (x) A^op, with
d(xy) = x . d(y) + d(x) . y, where the bimodule action is
x . v . y = (x (x) y^op) v.

One convention throughout, the one vndim uses. A vector of L^2(N) has the
coordinate of b_a (x) b_b^op at flat index a * n + b (n = dim A), so it is
an (n, n) tensor with one axis per tensor leg, and x (x) y^op has the
coordinates kron(x, y). A derivation is the (n^2, m) matrix whose column j
is d(x_j) for m arguments x_j, i.e. an (n, n, m) tensor; derivations are
handled as stacks (r, n^2, m). Every map of derivations is one factor
triple (a, b, c), standing for d -> kron(a, b) d c, or a pair (a, b)
with no c, applied by apply_pair: a and b act on the two tensor legs, None
for an identity leg, and c right-multiplies the argument axis. x (x) y^op
acts by (left_mult(x), right_mult(y)) on the left and by (right_mult(x),
left_mult(y)) on the right, and the GNS metric is whitened by (T, T),
T = A.onb_factor. A leg factor may be rectangular, taking the legs of one
algebra to another's, as the crossed-product maps between A and A x| G
do; no (n^2, n^2) operator matrix is formed. When every factor has at
most one nonzero entry in each row (c in each column), as in a monomial
basis (matrix units, b u_g), the map is one gather and one scaling, of
the n^2 rows for a pair and of the entries for a triple; a zero row, such
as a row of a leg factor outside the sector it reaches, maps to 0.
Kernels are solved for whitened values and mapped back by (T^-1, T^-1).
derivation_space builds the Leibniz equations only for the arguments of a
generating set, which have the same kernel (see leibniz_system). A
DerivationSpace has one representation: its whitened orthonormal basis in
the unknowns of leibniz_system, kept by block (a BlockKernel), as
nullspace returns it for derivation_space and as span_basis keeps it for
relative_derivations, which solves its constraints on that kernel. It is
mapped back to raw coordinates only for the columns a caller reads: vndim
reads the dimension of phi_X, X the basis, from the kernel itself. The
values at an argument set X are one sparse map, argument_map, the
(1 (x) X^T) of the unknowns: applied to the kernel's entries, it gives
relative_derivations its constraints and vndim phi_X for X not the basis.
derivation_space first certifies that the algebra is exact
(algebra.certify_exact), since that readout backs no number for an
inexact one.

Every function takes the FDAlgebra whose module it acts on, or, for the
crossed-product maps, the CrossedProduct A x| G. Those act on the coset
sectors L^2(N)(u_g (x) u_h^op), conjugate by the group elements, and move
derivations between A and A x| G, each through factor triples of
left_mult(u_g), right_mult(u_g), the embedding of A and the action.

Covariance. The scaling conjugation sigma_g(d) = u_g* . d(u_g . u_g*) . u_g
is a right action of G: sigma_g sigma_h = sigma_hg. So the derivations
fixed by sigma_g for every g of a generating set are fixed by every word
in it, which is every element of G, and covariance_defect takes its
maximum over FiniteGroup.generators only (2 conjugations for S3 and D4,
not 6 and 8). Its zero set is that of the maximum over all of G; a
nonzero value may be smaller. In the b u_g basis of a permutation or Ad
action by monomial unitaries, sigma_g is one monomial map of the entries
of a derivation, applied as one gather.
"""

from __future__ import annotations

import math

import numpy as np

# no program code calls gram_onb; the name stays bound only because
# benchmark/tracing.py hooks steinlab.derivations.gram_onb, and goes with that hook
from ._linalg import (  # noqa: F401
    QR_CHUNK, BlockKernel, SparseSystem, frob, gram_onb, nullspace, span_basis, sparse_product,
    stack_frob,
)
from .algebra import FDAlgebra, certify_exact
from .constructions import CrossedProduct, subalgebra_generate, span_equal
from .errors import NotSubalgebra, UnitsInvalid


def _monomial(*factors: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """kron of the factors as one monomial map, (src, val) with the one
    nonzero entry of row i at column src[i], of value val[i]; a zero row
    has val[i] = 0, so it maps to 0. None when a factor has a row with more
    than one nonzero entry."""
    src, val = np.zeros(1, dtype=int), np.ones(1)
    for f in factors:
        nz = f != 0
        if (np.count_nonzero(nz, axis=1) > 1).any():
            return None
        col = nz.argmax(axis=1)
        src = (src[:, None] * f.shape[1] + col).ravel()
        val = (val[:, None] * f[np.arange(len(f)), col]).ravel()
    return src, val


def _remap(v: np.ndarray, src: np.ndarray, val: np.ndarray, axis: int) -> np.ndarray:
    """The monomial map out[..., i, ...] = val[i] v[..., src[i], ...] along
    axis of v, a copy, by one gather (none when src is the identity) and
    one scaling (none when val is all ones): each entry is the one nonzero
    product of the matmul it stands for, without its sum of exact zeros."""
    scale = None if (val == 1).all() else val.reshape(-1, *[1] * (-1 - axis))
    if src.size == v.shape[axis] and (src == np.arange(src.size)).all():
        return v.copy() if scale is None else v * scale
    out = np.take(v, src, axis=axis).astype(np.result_type(v, val), copy=False)
    if scale is not None:
        out *= scale
    return out


def apply_pair(factors: tuple, v: np.ndarray) -> np.ndarray:
    """kron(a, b) v c for the factors (a, b) or (a, b, c), None an identity
    leg, applied to a stack v of shape (..., n1 n2, m): the L^2 axis is
    read as the two legs (n1, n2), a (p1, n1) and b (p2, n2) contract
    their legs and may be rectangular, and c (m, m') right-multiplies the
    argument axis; the result is (..., p1 p2, m'). When every factor is
    monomial (at most one nonzero entry in each row of a, b and c^T; a zero
    row maps to 0), as the factors of a monomial basis (matrix units,
    b u_g) are, the map is one gather and one scaling: of the p1 p2 rows
    with no c, of the entries with one."""
    a, b, c = (*factors, None)[:3]
    *lead, nn, m = v.shape
    n1 = a.shape[1] if a is not None else nn // b.shape[1] if b is not None else math.isqrt(nn)
    n2 = nn // n1
    legs = [np.eye(k) if f is None else f for f, k in ((a, n1), (b, n2))]
    p1, rows = len(legs[0]), len(legs[0]) * len(legs[1])
    mono = _monomial(*legs) if c is None else _monomial(*legs, c.T)
    if mono is not None and c is None:
        return _remap(v, *mono, -2)
    if mono is not None:
        return _remap(v.reshape(*lead, nn * m), *mono, -1).reshape(*lead, rows, c.shape[1])
    t = v
    if a is not None:
        t = np.matmul(a, t.reshape(*lead, n1, n2 * m))
    if b is not None:
        t = np.matmul(b, t.reshape(*lead, p1, n2, m))
    t = t.reshape(*lead, rows, m)
    return t if c is None else t @ c


def whiten(alg: FDAlgebra, v: np.ndarray) -> np.ndarray:
    """A stack (..., n^2, m) in GNS-orthonormal coordinates, where the GNS
    inner product of L^2(N) is the standard one."""
    return apply_pair((alg.onb_factor, alg.onb_factor), v)


def leibniz_residual(alg: FDAlgebra, mats: np.ndarray) -> np.ndarray:
    """Largest GNS norm of d(b_i b_j) - b_i . d(b_j) - d(b_i) . b_j over
    basis pairs, for each derivation of a stack (..., n^2, n): the rows of
    leibniz_system applied to its whitened values.

    The rows are built for a slab of basis indices i at a time, each slab
    of about QR_CHUNK bytes: its entries (32 bytes each), their copy sorted
    by row, and one derivation's products with them (48 bytes each). Each
    derivation's rows are then sums over consecutive entries."""
    mats = np.asarray(mats)
    n = alg.dim
    w = whiten(alg, mats).reshape(-1, n**3)
    # entries of the rows (., i, .): n^2 for each of two terms per triple
    # (i, y, z) of the pattern, and n per triple for the third
    pattern = _whitened_mult(alg)[2]
    entries = n * (2 * n * np.count_nonzero(pattern, axis=(1, 2)) + np.count_nonzero(pattern))
    slab = np.cumsum(entries) * (2 * 32 + 48) // QR_CHUNK
    worst = np.zeros(len(w))
    for rows in np.split(np.arange(n), np.flatnonzero(np.diff(slab)) + 1):
        system = leibniz_system(alg, rows)
        order = np.argsort(system.rows, kind="stable")
        at, cols, vals = system.rows[order], system.cols[order], system.vals[order]
        first = np.flatnonzero(np.r_[True, at[1:] != at[:-1]])
        # row (p * |rows| + s) * n + j: the norm runs over p for each (s, j)
        pair = at[first] % (rows.size * n)
        for k, x in enumerate(w):
            res = np.add.reduceat(vals * x[cols], first)
            sq = np.bincount(pair, (res * res.conj()).real, rows.size * n)
            worst[k] = max(worst[k], np.sqrt(sq.max()))
    return worst.reshape(mats.shape[:-2])


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
    n, m = alg.dim, np.shape(xis)[1]
    xs = np.asarray(xs, dtype=complex).T
    v = np.asarray(xis, dtype=complex).reshape(n, n, m)
    # x . xi acts on leg a and xi . x on leg b, for every x at once
    out = (alg.left_mult(xs) @ v.reshape(n, n * m)).reshape(-1, n, n, m)
    out -= alg.right_mult(xs)[:, None] @ v
    return out.reshape(-1, n * n, m)


def leibniz_system(alg: FDAlgebra, rows: np.ndarray) -> SparseSystem:
    """Linear system whose kernel is the space of derivations, in
    GNS-orthonormal leg coordinates.

    Unknown is the row-major vec of the (dim N, dim A) matrix (T (x) T) D,
    T = alg.onb_factor, entry at q * dim A + k. Equation (p, i, j) is
    component p of (T (x) T) applied to
    d(b_i b_j) - b_i . d(b_j) - d(b_i) . b_j = 0, so <., .>_X is the
    standard inner product of unknowns and a row norm is a GNS norm.

    rows lists the basis indices i whose equations are built, S
    (np.arange(dim A) for the full system); equation (p, i, j) with
    i = rows[s] is at row (p * |S| + s) * dim A + j. When the words in S
    (products of one or more elements b_s, s in S) span A, as for
    alg.generating_indices, the kernel is the same as the full system's. For a fixed linear d, the x
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
    sel = np.asarray(rows)
    m = sel.size
    lw, rw, pattern = _whitened_mult(alg)
    # every triple, and the triples with x = sel[r]
    x, y, z = (ax[:, None, None] for ax in np.nonzero(pattern))
    r, yr, zr = (ax[:, None, None] for ax in np.nonzero(pattern[sel]))
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


def _whitened_mult(alg: FDAlgebra) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The whitened operators T left_mult(b_x) T^-1 and T right_mult(b_y)
    T^-1 of leibniz_system, indexed [x, y, z] as mult is, and the union of
    their nonzero patterns with mult's, on which its entries sit."""
    t, t_inv, eye = alg.onb_factor, alg.onb_inverse, np.eye(alg.dim)
    lw = (t @ alg.left_mult(eye) @ t_inv).transpose(0, 2, 1)
    rw = (t @ alg.right_mult(eye) @ t_inv).transpose(2, 0, 1)
    return lw, rw, (alg.mult != 0) | (lw != 0) | (rw != 0)


class DerivationSpace:
    """Span of derivations of algebra with a basis orthonormal for
    <., .>_X, X the basis of A: <d1, d2>_X = sum_j <d1(b_j), d2(b_j)>.

    kernel holds that basis whitened, in the unknowns of leibniz_system,
    by block (a BlockKernel); columns reads derivations of it in raw
    coordinates, (count, dim N, dim A), from the blocks that hold them.
    """

    def __init__(self, algebra: FDAlgebra, kernel: BlockKernel):
        self.algebra = algebra
        self.kernel = kernel

    def columns(self, idx) -> np.ndarray:
        """The derivations idx of the basis, for idx any numpy index of
        them, (count, dim N, dim A) in raw coordinates: the whitened
        values, read by BlockKernel.vectors, mapped back by (T^-1, T^-1).
        Each derivation is contiguous, so it is mapped back by the same
        products whichever others are read with it; nothing is cached."""
        n, t_inv = self.algebra.dim, self.algebra.onb_inverse
        w = self.kernel.vectors(idx)
        return apply_pair((t_inv, t_inv), w.reshape(len(w), n * n, n))

    @property
    def rank(self) -> int:
        return self.kernel.shape[1]


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
    keeps that kernel by block and maps back only the columns read.
    """
    certify_exact(alg)
    return DerivationSpace(alg, nullspace(leibniz_system(alg, alg.generating_indices)))


def central_vectors(alg: FDAlgebra, sub_cols: np.ndarray) -> np.ndarray:
    """GNS-orthonormal basis of {v in N : b . v = v . b for all b in the span},
    solved for w = (T (x) T) v: the commutators of kron(T^-1, T^-1)."""
    back = (alg.onb_inverse, alg.onb_inverse)
    rows = commutator_span(alg, np.asarray(sub_cols), np.kron(*back))
    return apply_pair(back, nullspace(rows.reshape(-1, alg.dim**2)).vectors().T)


def relative_derivations(
    space: DerivationSpace, sub_cols: np.ndarray, check_subalgebra: bool = True
) -> DerivationSpace:
    """Subspace of derivations vanishing on a unital *-subalgebra, solved
    on the whitened kernel.

    With w_r the whitened kernel vectors as (dim N, dim A) matrices, the
    whitened value of d = sum_r c_r d_r at s is sum_r c_r w_r s, so the
    constraints d(s) = 0 for the columns s of sub_cols, argument_map on
    the kernel's entries, are linear in c; nullspace solves them per group
    of kernel blocks that they couple.
    Orthonormal combinations of an orthonormal basis are orthonormal, and
    span_basis keeps them by block. The kernel, the constraints and the
    combinations are all held by their block entries (SparseSystem), so
    no (unknowns, rank) array is formed.
    """
    alg = space.algebra
    sub_cols = np.asarray(sub_cols, dtype=complex)
    if check_subalgebra:
        closure = subalgebra_generate(alg, list(sub_cols.T))
        if not span_equal(alg, closure, sub_cols):
            raise NotSubalgebra("span is not a unital *-subalgebra")
    if space.rank == 0:
        return space
    w = space.kernel.sparse()
    combos = nullspace(sparse_product(argument_map(alg, sub_cols), w))
    return DerivationSpace(alg, span_basis(sparse_product(w, combos.sparse())))


def argument_map(alg: FDAlgebra, cols: np.ndarray) -> SparseSystem:
    """(1 (x) cols^T) on the unknowns of leibniz_system, q * dim A + k for
    the vector q of L^2(N) and the argument k, as a SparseSystem: it maps a
    whitened derivation to its whitened values at the columns s of cols,
    in row q * |cols| + s, the layout of phi_X and of the constraints
    d(s) = 0."""
    n, m = alg.dim, cols.shape[1]
    k, s = np.nonzero(cols)
    q = np.arange(n * n)[:, None]
    return SparseSystem((n * n * m, n**3), (q * m + s).ravel(), (q * n + k).ravel(),
                        np.tile(cols[k, s], n * n))


# -- matrix-unit central projection -------------------------------------------

def central_projection_element(alg: FDAlgebra, units: list[np.ndarray]) -> tuple[np.ndarray, tuple]:
    """Element p = sum_i n_i^-1 sum_jk e^(i)_jk (x) (e^(i)_kj)^op and its
    left multiplication on L^2(N) as two stacks (lefts, rights), one entry
    per matrix unit e^(i)_jk: lefts[u] = n_i^-1 left_mult(e^(i)_jk) and
    rights[u] = right_mult(e^(i)_kj), whose kron products sum to it.

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
    sizes = np.concatenate([np.full(arr.shape[0] ** 2, arr.shape[0]) for arr in units])
    p = np.einsum("ua,ub->ab", flat / sizes[:, None], flat_t).reshape(-1)
    return p, (alg.left_mult(flat) / sizes[:, None, None], alg.right_mult(flat_t))


# -- scaling conjugation (covariance) -----------------------------------------
#
# These take stacks (..., n^2, n) of derivation matrices of A x| G.

def scaling_conjugation(cp: CrossedProduct, g: int, mats: np.ndarray) -> np.ndarray:
    """The conjugated derivations x -> u_g* . d(u_g x u_g*) . u_g: the
    value's two legs and the argument, x -> ad(g) x, as one factor triple.
    In the b u_g basis of a permutation or Ad action all three are
    monomial, and the conjugation is one monomial map of the entries."""
    lu, ru = cp.u_mult
    return apply_pair((lu[cp.group.inv(g)], ru[g], cp.ad(g)), np.asarray(mats))


def average_scaling(cp: CrossedProduct, mats: np.ndarray) -> np.ndarray:
    """Group average of the scaling conjugations; lands on the derivations
    vanishing on the copy of C[G]."""
    k = cp.group.order
    return sum(scaling_conjugation(cp, g, mats) for g in range(k)) / k


def covariance_defect(cp: CrossedProduct, mats: np.ndarray) -> np.ndarray:
    """Largest Frobenius deviation of each derivation from its scaling
    conjugates by the group's generators, relative to max(1, its Frobenius
    norm). The conjugations compose as sigma_g sigma_h = sigma_hg, so a
    derivation fixed by the generators is fixed by every element, and the
    zero set is that of the maximum over all of G."""
    mats = np.asarray(mats)
    worst = np.zeros(mats.shape[:-2])
    for g in cp.group.generators:
        dev = scaling_conjugation(cp, g, mats)
        dev -= mats
        worst = np.maximum(worst, stack_frob(dev))
    return worst / np.maximum(1.0, stack_frob(mats))


# -- extension and restriction --------------------------------------------------

def extend_vanishing(cp: CrossedProduct, mats: np.ndarray, h: int) -> np.ndarray:
    """Extensions of derivations of A (a stack (..., dim_A^2, dim_A)) to
    derivations of A x| G vanishing on C[G], landing in the sectors with
    right group index h.

    On b u_m the value is sum_g (u_{g^-1} (x) (u_{g m})^op) . d(alpha_g(b)),
    pushed right by u_e (x) u_h^op. On b u_e that is the sum over g of the
    factor triples (left_mult(u_{g^-1}) E, left_mult(u_h) right_mult(u_g) E,
    alpha_g), E the embedding of A, whose left legs lie in the disjoint
    sectors g^-1: each triple is applied with its left leg cut to the rows
    of sector g^-1 and fills those rows, the only ones it reaches.
    Since right_mult(u_{g m}) = right_mult(u_m) right_mult(u_g),
    the value on b u_m is right_mult(u_m), which takes b_i u_l to b_i u_{l m},
    on the right leg of the value on b u_e: for every m at once, one leg
    factor on the right leg's group index and the argument, row (l m, j, m)
    taking (l, j).
    """
    grp = cp.group
    k, nb, n = grp.order, cp.base.dim, cp.algebra.dim
    lu, ru = cp.u_mult
    e = cp.embed_base
    mats = np.asarray(mats)
    lead = mats.shape[:-2]
    # the left leg b_i u_l at row i |G| + l: sector l is at_e[..., l, :, :]
    at_e = np.empty((*lead, nb, k, n, nb), dtype=complex)
    for g, alpha in enumerate(cp.action.matrices):
        gi = grp.inv(g)
        triple = ((lu[gi] @ e)[gi::k], lu[h] @ ru[g] @ e, alpha)
        at_e[..., gi, :, :] = apply_pair(triple, mats).reshape(*lead, nb, n, nb)
    l, m, j = np.ix_(range(k), range(k), range(nb))
    expand = np.zeros((k, nb, k, k, nb))
    expand[grp.table[l, m], j, m, l, j] = 1
    return apply_pair((None, expand.reshape(k * nb * k, k * nb)),
                      at_e.reshape(*lead, n * n * nb, 1)).reshape(*lead, n * n, n)


def restrict_component(cp: CrossedProduct, mats: np.ndarray, g: int, h: int) -> np.ndarray:
    """Component D_{g,h} of derivations of A x| G (a stack (..., n^2, n)),
    as derivations of A.

    Takes d|_A on the coset sector L^2(N)(u_g (x) u_h^op), the basis
    vectors whose left leg has group index g and whose right leg has group
    index h, and pulls it back to the (e, e) sector, i.e. to the standard
    A-bimodule, by right multiplication with u_{g^-1} (x) (u_{h^-1})^op:
    one factor triple, the rows of the (e, e) sector of right_mult(u_{g^-1})
    and left_mult(u_{h^-1}), which reach it from sectors g and h only, and
    the embedding of A on the argument.
    """
    centre = cp.group_index == cp.group.identity
    lu, ru = cp.u_mult
    pull = (ru[cp.group.inv(g)][centre], lu[cp.group.inv(h)][centre], cp.embed_base)
    return apply_pair(pull, np.asarray(mats))


def decompose_vanishing(cp: CrossedProduct, mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split each derivation D of a stack (r, n^2, n) vanishing on C[G]
    into its components D_h := D_{e,h}, (r, |G|, dim_A^2, dim_A), and return
    them with the residual |D - sum_h (D_h)^h| of each derivation."""
    e, k = cp.group.identity, cp.group.order
    comps = np.stack([restrict_component(cp, mats, e, h) for h in range(k)], axis=1)
    # summed in place: the extensions are as large as the stack itself
    back = extend_vanishing(cp, comps[:, 0], 0)
    for h in range(1, k):
        back += extend_vanishing(cp, comps[:, h], h)
    back -= mats
    return comps, np.linalg.norm(back, axis=(1, 2))
