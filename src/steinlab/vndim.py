"""von Neumann dimension of right submodules of L^2(N)^k.

A ModuleSubspace is a span of vectors in a direct sum of k copies of
L^2(N), N = A (x) A^op, together with the right action of a coefficient
algebra N_0 (one block operator per element, acting diagonally across the
copies) and a family omega_j of trace vectors of one copy, taken in every
copy: Omega = I_k (x) omega. The dimension is sum_b <P Omega_b, Omega_b>
for the orthogonal projection P onto the span, valid once P commutes with
the right action.

Each right operator acts on one tensor leg and is stored as (leg,
matrix): R(x (x) 1) = (0, right_mult(x)) on leg a and R(1 (x) y^op) =
(1, left_mult(y)) on leg b. Both legs are L^2(A) for the module's
algebra A, whose onb_factor gives the GNS-orthonormal coordinates.

The right operators need only come from a generating set of N_0 closed
under *. By von Neumann's bicommutant theorem the commutant of a
self-adjoint set of operators is the commutant of the *-algebra it
generates, so P commutes with all of R(N_0) exactly when it commutes with
the generators' operators, and the one-leg operators of a *-closed
generating set of A generate R(N_0).

vn_dimension takes one of two routes, named in DimensionResult.route.
phi_X(Der A) with X the basis of A, for a DerivationSpace that holds its
whitened Leibniz kernel (derivation_space), is a KernelModule and takes
the kernel route. Every other module takes the spectral route: X other
than the basis, whose span mixes the kernel columns; a given span, such as
the identity or one of restrict_scalars; a space built from a dense
basis, such as relative_derivations'; and an InnerModule, whose span is
not given orthonormal and whose only block structure, in a non-monomial
basis, is the spectral split.

The kernel route. Copy k of phi_X(d) is d(b_k), and in GNS-orthonormal
coordinates that is column k of the whitened unknown of leibniz_system,
unknown (a * n + b) * n + k being leg a, leg b and copy k. So the
whitened span of phi_X is the Leibniz kernel itself, which nullspace
returns orthonormal and by block: P = Q Q^H is block diagonal over the
kernel blocks, with no rotation, no block SVD and no rank certificate,
since the span is its own orthonormal basis. The dimension is
sum_k |Q^H Omega_k|^2, summed per block and vector. The closure test
applies the combinations of _test_ops, with the legs in GNS-orthonormal
coordinates (T, T^-1) in place of a rotation, to each part's blocks
laid out by fibers (the n unknowns that differ only on the operator's
leg), gathers the image of each source block onto every target block it
meets, in full, and subtracts Q_t Q_t^H of it there; its residual is the
spectral route's relative norm, over all parts at once.
This readout is backed only for an exact algebra: the kernel of an
inexact one is the exact kernel of a nearby wrong algebra, orthonormal
and right-closed to rounding, which no test here can refuse. So
derivation_space certifies exactness first (algebra.certify_exact).

The spectral route never forms P densely. A projection commuting with
the right action commutes with every spectral projection of a
self-adjoint element of it (Lueck, L^2-Invariants, ch. 1). So each leg is rotated into the
eigenbasis of a fixed-seed random self-adjoint combination
sum_j t_j (a_j + a_j^*) of its one-leg operators, in GNS-orthonormal
coordinates, and L^2(N)^k splits into blocks C^k (x) E_a (x) E_b of
eigenvalue clusters E_a, E_b, found by _linalg.spectral_split from
SPLIT_SEED. Eigenvalues closer than _linalg.CLUSTER_GAP (relative) share a
cluster: a union of eigenspaces is still a spectral projection, so merging
only coarsens the blocks, while a split degenerate eigenspace would not
be one.

The span W is orthonormalized block by block (batched SVDs, one rank cut
on the union of the block spectra), giving an orthonormal basis Q' of
W' = sum_ab P_ab W, which contains W. A module has W = W'; this is
certified by the rank of the coefficients C = Q'^H span, which must be
dim W' (gap-guarded, as every rank here), or NotRightClosed is raised.
Then the closure test below runs against the block-diagonal projector
P = Q' Q'^H at CLOSURE_TOL, and the dimension is
sum_ab |Q'_ab^H Omega_ab|^2, with omega rotated once and read against
the rows of each copy. The rotation is unitary, so for a module
this is the value of the dense projection.

The closure test applies random combinations, not every operator. With
Q = Q' and M_j = (1 - P) T_j Q for operators T_1 .. T_m, the residual of
T(t) = sum_j t_j T_j is sum_j t_j M_j, and for iid t_j of unit variance
E |sum_j t_j M_j|^2 = sum_j |M_j|^2 (Frobenius norms; Hutchinson, Comm.
Statist. Simul. Comput. 18, 1989): W is invariant under every T_j
exactly when the expected residual is zero. So for each leg one
combination sum_j t_j a_j of the leg's one-leg operators is tested, t
iid standard complex Gaussian (E |t_j|^2 = 1) drawn from _CLOSURE_SEED,
in CLOSURE_DRAWS = 2 independent draws: at most 4 applications, against
one per right operator if each were tested alone. The largest residual
is kept. The seed is not SPLIT_SEED: the blocks are spectral subspaces
of the cluster combination sum_j t_j (a_j + a_j^*), so a span of block
parts passes against that combination by construction, and a test on it
would prove nothing.

The chance of a miss. Let a_i have relative residual
rho = |M_i| / max(1, |a_i Q|) > CLOSURE_TOL, and let one draw read its
combination's residual against CLOSURE_TOL s, s = max(1, |T(t) Q|).
Fix every t_j but t_i: the residual is t_i M_i + C for a fixed C, and
its norm is at least |t_i |M_i| + <u, C>|, u = M_i / |M_i|. The density
of a standard complex Gaussian is at most 1/pi, so a disc of radius r
has probability at most r^2, and, taking the scale s as given, the draw
misses a_i with probability at most
(CLOSURE_TOL / rho)^2 (s / max(1, |a_i Q|))^2. Since
E |T(t) Q|^2 = sum_j |T_j Q|^2, the ratio of scales is about sqrt(m)
for m operators of one size, and the bound is about m (CLOSURE_TOL /
rho)^2: 1e-8 m at rho = 1e-4, but 0.09 for m = 9 at rho = 10
CLOSURE_TOL. The draws are independent and a miss of their maximum
needs both to miss, so two draws square the bound (0.008 there), at the
cost of two applications per leg. The seed is fixed, so the same
module always gets the same verdict.

The spectral route takes the span from the module as its blocks in the
rotated coordinates (spectral_blocks), then runs one computation on them: block
SVDs, certificate, closure test and trace readout. The block SVDs and the
certificate run per connected component of the incidence of blocks and
span columns. A module holding a raw span (ModuleSubspace: phi_x,
restrict_scalars) is rotated and its blocks gathered (_gather): the
incidence is read from the column norms of the rotated blocks, and the
smallest parts of columns are dropped while their total Frobenius norm
stays below a tenth of the rank cut of the largest block column norm,
which is at most the scale of every rank decision here; by Weyl's
inequality that moves no singular value by more than a tenth of the cut,
and every larger part is kept, down to the last nonzero. Up to
permutations the rotated span is then block diagonal over the components
(_linalg._column_components), and so is C: each block is orthonormalized
over its component's columns only, the stacks batched by shape through
batched_svd with one rank cut on the union of all block spectra (the cut
nullspace relies on), and C is one stack per component shape. A span
whose columns meet every block is one component, the unsplit
computation.

inner_derivation_module (an InnerModule) builds its blocks directly and
never forms the span. Its columns are phi_X([., xi]) for xi = e_i (x) e_j
in the rotated GNS-orthonormal bases of the legs; in these coordinates the
column of argument x_c is kron(A_c e_i, e_j) - kron(e_i, B_c e_j), with
A_c = rot_a left_mult(x_c) rot_a^-1 and B_c = rot_b right_mult(x_c)
rot_b^-1. Left and right multiplication commute, so A_c and B_c commute
with the legs' random self-adjoint right operators and are block diagonal
over the leg clusters up to rounding; the column then lies in block
(a, b) of its clusters, which is the stack over c of
kron(A_c|_a, 1) - kron(1, B_c|_b), of shape (k size_a size_b,
size_a size_b), and each block is one component. What the blocks leave
out, the parts of A_c and B_c off the cluster diagonal, has total
Frobenius norm sum_c (n_b |A_c^off|^2 + n_a |B_c^off|^2) over all
columns; the builder certifies it below the drop bound above and raises
NotRightClosed otherwise (a split degenerate eigenspace fails here). The
blocks keep every column: the shared rank cut discards the exact-zero
ones, such as central xi. M6 is 36 blocks of 108 x 36 (2 MB) where its
span was 80 MB.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

# gram_onb is no longer called here; the name stays bound because
# benchmark/tracing.py hooks steinlab.vndim.gram_onb
from ._linalg import (  # noqa: F401
    SPLIT_SEED, BlockKernel, _column_components, batched_svd, gram_onb, rank_cut, spectral_split,
)
from .algebra import FDAlgebra
from .constructions import CrossedProduct
from .derivations import DerivationSpace
from .errors import NotGenerating, NotRightClosed

# largest relative residual of a right operator's image off the span that
# still counts as right-closed; fixed, independent of any report tolerance
CLOSURE_TOL = 1e-8
# random operator combinations per leg that the closure test applies, from a
# seed of their own: the blocks pass the cluster split's combination by
# construction
CLOSURE_DRAWS = 2
_CLOSURE_SEED = 1


@dataclass(eq=False)
class ModuleSubspace:
    """Span of vectors in L^2(N)^ncoords with a right action.

    right_ops is closed under adjoints as a span: the GNS adjoint of each
    operator lies in the span of the list (R(m)* = R(m*) for a trace, so a
    *-closed generating set gives such a list). Raises ValueError unless
    every right operator is (0 or 1, a (dim A, dim A) matrix).
    """

    algebra: FDAlgebra  # A, with N = A (x) A^op
    ncoords: int
    span: np.ndarray  # (ncoords * dim A^2, r), raw coordinates
    right_ops: list  # (leg, matrix) one-leg operators, leg 0 or 1
    # (dim A^2, t): the family omega of one copy; the trace vectors are
    # omega_j in each coordinate, I_ncoords (x) omega
    trace_vectors: np.ndarray

    def __post_init__(self):
        n = self.algebra.dim
        for op in self.right_ops:
            leg, mat = op if isinstance(op, tuple) and len(op) == 2 else (None, None)
            if not (isinstance(leg, int) and leg in (0, 1) and np.shape(mat) == (n, n)):
                raise ValueError(f"a right operator is (leg 0 or 1, a ({n}, {n}) matrix)")

    def spectral_blocks(self) -> tuple[list, tuple]:
        """(legs, blocks): the leg splits of _legs and the span's blocks in
        their rotated coordinates, gathered from the rotated span (_gather)."""
        legs = _legs(self.algebra, self.right_ops)
        return legs, _gather(_rotate(self.span, self.ncoords, legs), legs)


@dataclass(eq=False)
class InnerModule:
    """phi_X of the span of commutator derivations, X the columns of gens,
    held as its blocks in the rotated coordinates of legs (see
    inner_derivation_module); the span itself is never formed."""

    algebra: FDAlgebra
    gens: np.ndarray  # (dim A, ncoords), the argument set X
    right_ops: list  # as in ModuleSubspace
    legs: list  # the leg splits of _legs for algebra and right_ops
    blocks: tuple  # as _gather returns them

    @property
    def ncoords(self) -> int:
        return self.gens.shape[1]

    @property
    def trace_vectors(self) -> np.ndarray:
        return np.kron(self.algebra.unit, self.algebra.unit)[:, None]

    def spectral_blocks(self) -> tuple[list, tuple]:
        return self.legs, self.blocks


class KernelModule:
    """phi_X of a derivation space that holds its whitened Leibniz kernel,
    X the basis of A, read by vn_dimension from the kernel blocks (see the
    module docstring). right_ops is as in ModuleSubspace; the span, as
    ModuleSubspace holds it, is formed only when read."""

    def __init__(self, space: DerivationSpace, right_ops: list):
        self.space, self.right_ops = space, right_ops

    @property
    def algebra(self) -> FDAlgebra:
        return self.space.algebra

    @property
    def ncoords(self) -> int:
        return self.algebra.dim

    @property
    def trace_vectors(self) -> np.ndarray:
        return np.kron(self.algebra.unit, self.algebra.unit)[:, None]

    @cached_property
    def span(self) -> np.ndarray:
        return _phi_span(self.space, np.eye(self.ncoords, dtype=complex))


@dataclass
class DimensionResult:
    value: float
    rank: int
    # largest relative residual (1 - P) T Q over the closure test's
    # operators T, not over each right operator
    closure_residual: float
    route: str  # "kernel" or "spectral", see the module docstring

    def __float__(self) -> float:
        return self.value


def _leg_split(alg: FDAlgebra, ops: list, rng: np.random.Generator) -> tuple:
    """(rot, inv, classes) for one tensor leg L^2(alg): rot maps basis
    coordinates to GNS-orthonormal ones in the eigenbasis of a random
    self-adjoint combination of the leg's operators, inv = rot^-1, and
    classes lists (start, count, size) per cluster size, the clusters of
    one size consecutive, by spectral_split."""
    t, ti, n = alg.onb_factor, alg.onb_inverse, alg.dim
    if not ops:
        return t, ti, [(0, 1, n)]
    comb = rng.standard_normal(len(ops)) @ np.array(ops).reshape(len(ops), -1)
    vec, bounds = spectral_split(t @ comb.reshape(n, n) @ ti)
    clusters = sorted(zip(bounds[:-1], bounds[1:]), key=lambda c: c[1] - c[0])
    u = vec[:, [i for lo, hi in clusters for i in range(lo, hi)]]
    classes, start = [], 0
    for lo, hi in clusters:
        size = hi - lo
        if classes and classes[-1][2] == size:
            classes[-1] = (classes[-1][0], classes[-1][1] + 1, size)
        else:
            classes.append((start, 1, size))
        start += size
    return u.conj().T @ t, ti @ u, classes


def _rotate(vecs: np.ndarray, ncoords: int, legs: list) -> np.ndarray:
    """Stacked vectors in the rotated coordinates of both legs, shape
    (ncoords, n_a, n_b, columns). One coordinate is rotated at a time, so
    that the temporaries stay one coordinate in size."""
    ra, rb = legs[0][0], legs[1][0]
    v = vecs.reshape(ncoords, ra.shape[0], rb.shape[0], -1)
    t = np.empty(v.shape, dtype=complex)
    for c in range(ncoords):
        np.matmul(rb, np.matmul(ra, v[c].reshape(ra.shape[0], -1)).reshape(v.shape[1:]), out=t[c])
    return t


def _class_blocks(t: np.ndarray, legs: list) -> dict:
    """Spectral blocks of rotated vectors, grouped by class pair
    (alpha, beta): each value is a view of shape (ncoords, count_a, size_a,
    count_b, size_b, columns) of t, one (cluster a, cluster b) block per
    entry of the count axes."""
    (_, _, ca), (_, _, cb) = legs
    return {
        (alpha, beta): t[:, sa : sa + a * d, sb : sb + b * e].reshape(len(t), a, d, b, e, -1)
        for alpha, (sa, a, d) in enumerate(ca)
        for beta, (sb, b, e) in enumerate(cb)
    }


def _block_stack(view: np.ndarray) -> np.ndarray:
    """A class pair's blocks as one stack (count_a * count_b,
    ncoords * size_a * size_b, columns), block rows in (coordinate, leg a,
    leg b) order."""
    k, a, d, b, e, cols = view.shape
    return view.transpose(1, 3, 0, 2, 4, 5).reshape(a * b, k * d * e, cols)


def _closure_residual(op: tuple, basis: dict, legs: list, ncoords: int) -> float:
    """Relative Frobenius norm of (1 - P) T Q for the rotated one-leg right
    operator op = (leg, T) and the block-diagonal basis Q of the span,
    P = Q Q^H; basis maps each class pair to its (Q, Q^H) stacks.

    The image of a source class pair splits over the target classes of the
    leg, one at a time; the source cluster is folded into the columns.
    """
    leg, mat = op
    classes = legs[leg][2]
    rem2 = img2 = 0.0
    for key, (q, _) in basis.items():
        if not q.size:  # no basis vectors here, so no image
            continue
        (_, a, d), (_, b, e) = legs[0][2][key[0]], legs[1][2][key[1]]
        # (count, other count, ncoords, size, other size, columns), this leg first
        t = q.reshape(a, b, ncoords, d, e, -1)
        if leg:
            t = t.transpose(1, 0, 2, 4, 3, 5)
        s, a, d = classes[key[leg]]
        _, b, k, _, e, cols = t.shape
        t = t.transpose(0, 3, 1, 2, 4, 5).reshape(a, d, b * k * e * cols)
        for c2, (s2, a2, d2) in enumerate(classes):
            m = mat[s2 : s2 + a2 * d2, s : s + a * d].reshape(a2 * d2, a, d)
            img = np.matmul(m.transpose(1, 0, 2), t).reshape(a, a2, d2, b, k, e, cols)
            img = img.transpose(1, 3, 4, 2, 5, 0, 6).reshape(a2, b, k, d2, e, a * cols)
            if leg:
                img = img.transpose(1, 0, 2, 4, 3, 5)
            qt, qth = basis[(c2, key[1]) if leg == 0 else (key[0], c2)]
            img = img.reshape(qt.shape[0], qt.shape[1], -1)
            img2 += np.vdot(img, img).real
            img -= qt @ (qth @ img)
            rem2 += np.vdot(img, img).real
    return float(np.sqrt(rem2) / max(1.0, np.sqrt(img2)))


def _test_ops(ops: list, legs: list) -> list:
    """The operators the closure test applies, as (leg, matrix) in the
    rotated coordinates of the legs: for each of CLOSURE_DRAWS draws and
    each leg, one combination sum_j t_j a_j of the leg's operators a_j,
    t iid standard complex Gaussian from _CLOSURE_SEED (see the module
    docstring)."""
    rng = np.random.default_rng(_CLOSURE_SEED)
    mats = [np.array([m for l, m in ops if l == leg]) for leg in (0, 1)]
    out = []
    for _ in range(CLOSURE_DRAWS):
        for leg, (rot, inv, _) in enumerate(legs):
            if len(mats[leg]):
                x, y = rng.standard_normal((2, len(mats[leg])))
                t = (x + 1j * y) / np.sqrt(2)
                out.append((leg, rot @ np.tensordot(t, mats[leg], axes=1) @ inv))
    return out


def _legs(alg: FDAlgebra, right_ops: list) -> list:
    """The leg splits vn_dimension uses for a module over alg (x) alg^op
    with these right operators: one _leg_split per tensor leg, drawn from
    one fixed-seed generator, so the same inputs give the same rotation."""
    rng = np.random.default_rng(SPLIT_SEED)
    return [_leg_split(alg, [m for l, m in right_ops if l == leg], rng) for leg in (0, 1)]


def _drop_bound(norms: np.ndarray) -> float:
    """Largest total Frobenius norm of block column parts that may be
    dropped: the largest singular value of the blocks and of the
    coefficients is at least the largest column norm of a block, so both
    rank cuts are at least rank_cut of it, and parts this small move no
    singular value by more than a tenth of either cut (Weyl)."""
    return rank_cut(norms.max(initial=0.0)) / 10


def _gather(t: np.ndarray, legs: list) -> tuple:
    """Stage 1: the spectral blocks of a rotated span, per connected
    component.

    t is the rotated span (see _rotate). The incidence of blocks and span
    columns is read from the column norms of the blocks; the smallest
    parts are dropped while their total Frobenius norm stays below
    _drop_bound, and each block is gathered over its component's columns
    (see the module docstring). Returns (stacks, where, shapes, nlabels):
    stacks holds (count, rows, width) arrays, one per class pair and
    component width, blocks in the pair's order and block rows in
    (coordinate, leg a, leg b) order; where[i] is (class pair, indices of
    the blocks of stacks[i] within the pair, their component labels), the
    labels below nlabels; shapes maps every class pair to (count, rows).
    """
    k, na, nb, ncols = t.shape
    blocks = _class_blocks(t, legs)
    norms = np.sqrt(np.concatenate([
        (np.einsum("kadber,kadber->abr", v.real, v.real)
         + np.einsum("kadber,kadber->abr", v.imag, v.imag)).reshape(v.shape[1] * v.shape[3], ncols)
        for v in blocks.values()
    ]))
    flat = norms.ravel()
    order = np.argsort(flat, kind="stable")
    ndrop = np.searchsorted(np.cumsum(flat[order] ** 2), _drop_bound(flat) ** 2)
    blk, col = np.divmod(order[ndrop:], ncols)

    # a component is labelled by its smallest column, and ncols labels a
    # block meeting no column; a component's columns are listed
    # consecutively in increasing order, from start[label]
    label = _column_components(blk, col, len(norms), ncols)
    active = np.zeros(ncols, dtype=bool)
    active[col] = True
    active = np.flatnonzero(active)
    comp_cols = active[np.argsort(label[active], kind="stable")]
    size = np.bincount(label[active], minlength=ncols + 1)
    start = np.cumsum(size) - size
    block_comp = np.full(len(norms), ncols)
    block_comp[blk] = label[col]

    # each block restricted to its component's columns, gathered from t by
    # flat index, one stack per class pair and component size
    (_, _, ca), (_, _, cb) = legs
    stacks, where, first = [], [], 0
    for key in blocks:
        (sa, a, d), (sb, b, e) = ca[key[0]], cb[key[1]]
        comp = block_comp[first : first + a * b]
        first += a * b
        rows = ((np.arange(k)[:, None, None] * na + np.arange(d)[:, None]) * nb
                + np.arange(e)).ravel() * ncols
        for width in set(size[comp].tolist()) - {0}:
            sel = np.flatnonzero(size[comp] == width)
            ia, ib = np.divmod(sel, b)
            at = ((sa + ia * d) * nb + sb + ib * e) * ncols
            cols = comp_cols[start[comp[sel], None] + np.arange(width)]
            stacks.append(t.ravel()[at[:, None, None] + rows[:, None] + cols[:, None, :]])
            where.append((key, sel, comp[sel]))
    shapes = {key: (v.shape[1] * v.shape[3], k * v.shape[2] * v.shape[4])
              for key, v in blocks.items()}
    return stacks, where, shapes, ncols + 1


def _block_bases(stacks: list, where: list, shapes: dict, nlabels: int) -> tuple[dict, int]:
    """Stage 2: orthonormal bases of the block parts of the span and
    dim W'.

    Takes the blocks as _gather returns them: the block SVDs are batched
    by shape with one rank cut, and the W = W' certificate runs per
    connected component (see the module docstring). Returns, per class
    pair, the bases (count, rows, rho), with zero columns past each
    block's rank, beside their adjoints. Raises NotRightClosed if the
    certificate fails.
    """
    svds = batched_svd(stacks)
    rho = dict.fromkeys(shapes, 0)
    for (key, *_), (*_, kept) in zip(where, svds):
        rho[key] = max(rho[key], int(kept.sum(axis=1).max()))
    basis = {key: np.zeros((*shape, rho[key]), dtype=complex) for key, shape in shapes.items()}
    # rows S Vh of the coefficients of W in the basis of W', grouped by
    # component size: the matrix is block diagonal over the components
    coef = {}
    for (key, sel, comp), (u, s, vh, kept) in zip(where, svds):
        width = min(u.shape[2], rho[key])
        basis[key][sel, :, :width] = u[:, :, :width] * kept[:, None, :width]
        kept = kept[:, : vh.shape[1]]
        vh *= s[:, : vh.shape[1], None]
        coef.setdefault(vh.shape[2], []).append((vh[kept], comp[np.nonzero(kept)[0]]))
    del svds  # the left singular vectors are copied into basis
    # one stack per component shape, each component's rows consecutive
    cert, rank = [], 0
    for parts in coef.values():
        rows_c = np.concatenate([r for r, _ in parts])
        owner = np.concatenate([o for _, o in parts])
        order = np.argsort(owner, kind="stable")
        height = np.bincount(owner, minlength=nlabels)
        first = np.cumsum(height) - height
        for h in set(height[owner].tolist()):
            cert.append(rows_c[order[first[height == h, None] + np.arange(h)]])
        rank += owner.size
    # W = W' exactly when each component's coefficients have full row rank
    span_rank = sum(int(kept.sum()) for *_, kept in batched_svd(cert, vectors=False))
    if span_rank != rank:
        raise NotRightClosed(
            f"span rank {span_rank} differs from the rank {rank} of its "
            "spectral blocks: the span is not the sum of its block parts"
        )
    return {key: (q, q.conj().transpose(0, 2, 1)) for key, q in basis.items()}, rank


def vn_dimension(sub: ModuleSubspace | InnerModule | KernelModule) -> DimensionResult:
    """Trace of the span projection against the trace vectors.

    A KernelModule is read from its kernel blocks (_kernel_dimension).
    Every other module takes the spectral route: it takes the span's
    spectral blocks for the right action from the module
    (spectral_blocks), takes the block SVDs and certifies that the span is
    the sum of its block parts, per connected component of the blocks and
    span columns. Both routes test the operators of _test_ops, random
    combinations of each leg's operators, against the block-diagonal
    projector (see the module docstring).
    Raises NotRightClosed if the certificate fails or some test
    operator's image leaves the span by more than CLOSURE_TOL (relative);
    the result's closure_residual is the largest of these residuals.
    Since right_ops is closed under adjoints, invariance under each
    operator already gives invariance under its adjoint.
    """
    if isinstance(sub, KernelModule):
        return _kernel_dimension(sub)
    k = sub.ncoords
    legs, blocks = sub.spectral_blocks()
    basis, rank = _block_bases(*blocks)
    worst = max((_closure_residual(op, basis, legs, k) for op in _test_ops(sub.right_ops, legs)),
                default=0.0)
    if worst > CLOSURE_TOL:
        raise NotRightClosed(f"commutant residual {worst:.3e} above {CLOSURE_TOL}")

    # omega is rotated once and read against the rows of every coordinate
    omegas = _class_blocks(_rotate(sub.trace_vectors, 1, legs), legs)
    value = 0.0
    for key, (_, qh) in basis.items():
        count, rho, rows = qh.shape
        overlaps = qh.reshape(count, rho, k, rows // k) @ _block_stack(omegas[key])[:, None]
        value += float(np.sum(np.abs(overlaps) ** 2))
    return DimensionResult(value, rank, worst, "spectral")


def _kernel_index(kernel: BlockKernel) -> tuple:
    """(part, block, pos): for each unknown, the part of its kernel block
    (-1 for an unknown in no kernel block), the block's index within the
    part and the unknown's position among the block's columns."""
    part, block, pos = (np.full(kernel.ncols, -1) for _ in range(3))
    for p, (cols, _, _) in enumerate(kernel.parts):
        part[cols] = p
        block[cols] = np.arange(len(cols))[:, None]
        pos[cols] = np.arange(cols.shape[1])
    return part, block, pos


def _kernel_fibers(kernel: BlockKernel, n: int, stride: int) -> list:
    """The kernel blocks laid out by the fibers of one leg, whose index in
    an unknown has stride stride: a fiber is the n unknowns of one block's
    columns that differ only on that leg. Per part, (slot, x, src, at):
    column j of block b sits at leg index x[b, j] of the block's fiber
    slot[b, j], fibers numbered across the part, and, for every entry of
    the (n, fibers) layout in row-major order, at is its unknown and src
    its block."""
    out = []
    for cols, _, _ in kernel.parts:
        m, c = cols.shape
        x = cols // stride % n
        key, slot = np.unique(np.arange(m)[:, None] * kernel.ncols + cols - x * stride,
                              return_inverse=True)
        src, start = np.divmod(key, kernel.ncols)
        at = (start + (np.arange(n) * stride)[:, None]).ravel()
        out.append((slot.reshape(m, c), x, np.tile(src, n), at))
    return out


def _kernel_residual(mat: np.ndarray, kernel: BlockKernel, fibers: list,
                     index: tuple) -> tuple[float, float]:
    """(|T Q|^2, |(1 - P) T Q|^2) for a whitened one-leg operator T = mat
    and the kernel basis Q, P = Q Q^H, from the kernel blocks (fibers as
    _kernel_fibers returns them for T's leg, index as _kernel_index).

    T acts on the leg axis of each part's fiber layout. The image of a
    source block is gathered onto each target block it meets, by target
    part, and Q_t Q_t^H of it subtracted there; entries in no kernel block
    are left whole.
    """
    part, block, pos = index
    n = len(mat)
    img2 = rem2 = 0.0
    for (_, vecs, _), (slot, x, src, at) in zip(kernel.parts, fibers):
        k = vecs.shape[2]
        z = np.zeros((n, len(src) // n, k), dtype=complex)
        z[x, slot] = vecs
        y = (mat @ z.reshape(n, -1)).reshape(-1, k)
        img2 += np.vdot(y, y).real
        hit = np.flatnonzero(np.any(y != 0, axis=1))
        y, src_h, at_h = y[hit], src[hit], at[hit]
        rest = part[at_h] < 0
        rem2 += np.vdot(y[rest], y[rest]).real
        for target in np.unique(part[at_h[~rest]]):
            sel = np.flatnonzero(part[at_h] == target)
            tcols, tvecs, _ = kernel.parts[target]
            pairs, pair = np.unique(src_h[sel] * len(tcols) + block[at_h[sel]],
                                    return_inverse=True)
            img = np.zeros((pairs.size, tcols.shape[1], k), dtype=complex)
            img[pair.ravel(), pos[at_h[sel]]] = y[sel]
            q = tvecs[pairs % len(tcols)]
            img -= q @ (q.conj().transpose(0, 2, 1) @ img)
            rem2 += np.vdot(img, img).real
    return img2, rem2


def _kernel_dimension(sub: KernelModule) -> DimensionResult:
    """vn_dimension of phi_X(Der A), X the basis, from the whitened kernel
    (see the module docstring)."""
    alg, kernel = sub.algebra, sub.space.kernel
    n, t = alg.dim, alg.onb_factor
    index = _kernel_index(kernel)
    fibers = [_kernel_fibers(kernel, n, stride) for stride in (n * n, n)]
    worst = 0.0
    for leg, mat in _test_ops(sub.right_ops, [(t, alg.onb_inverse, None)] * 2):
        img2, rem2 = _kernel_residual(mat, kernel, fibers[leg], index)
        worst = max(worst, float(np.sqrt(rem2) / max(1.0, np.sqrt(img2))))
    if worst > CLOSURE_TOL:
        raise NotRightClosed(f"commutant residual {worst:.3e} above {CLOSURE_TOL}")
    # <Q_v, Omega_k> for Omega_k = omega in copy k, per block and vector
    omega = np.kron(t @ alg.unit, t @ alg.unit)
    value = 0.0
    for cols, vecs, _ in kernel.parts:
        m, c, k = vecs.shape
        q, arg = np.divmod(cols, n)
        prod = (vecs.conj() * omega[q][..., None]).ravel()
        idx = ((np.arange(m)[:, None] * n + arg)[..., None] * k + np.arange(k)).ravel()
        value += float(np.sum(np.bincount(idx, prod.real) ** 2 + np.bincount(idx, prod.imag) ** 2))
    return DimensionResult(value, kernel.shape[1], worst, "kernel")


def as_fraction(x: float, max_den: int, tol: float = 1e-6) -> Fraction | None:
    """Nearest p/q with q <= max_den if within tol, for report cosmetics."""
    frac = Fraction(x).limit_denominator(max_den)
    if abs(float(frac) - x) <= tol:
        return frac
    return None


# -- builders -----------------------------------------------------------------

def _with_stars(alg, gens: np.ndarray) -> list:
    """The columns of gens and their stars; repeats (a set already
    containing its stars) are skipped."""
    seen = set()
    out = []
    for j in range(gens.shape[1]):
        for x in (gens[:, j], alg.star_of(gens[:, j])):
            key = (np.round(x, 12) + 0.0).tobytes()
            if key not in seen:
                seen.add(key)
                out.append(x)
    return out


def _right_ops(alg, xs: list) -> list:
    """Right multiplication on L^2(alg (x) alg^op) by x (x) 1 and 1 (x) x^op
    for each x, as (0, right_mult(x)) and (1, left_mult(x))."""
    xs = np.reshape(xs, (-1, alg.dim))
    # right_mult(x)[k, i] = sum_j mult[i, j, k] x_j, left_mult(x)[k, j] =
    # sum_i x_i mult[i, j, k], for all x at once
    rights = np.tensordot(alg.mult, xs, axes=(1, 1)).transpose(2, 1, 0)
    lefts = np.tensordot(xs, alg.mult, axes=(1, 0)).transpose(0, 2, 1)
    return [op for r, l in zip(rights, lefts) for op in ((0, r), (1, l))]


def _phi_span(space: DerivationSpace, gens: np.ndarray) -> np.ndarray:
    """The span of phi_X(space), (ncoords * dim A^2, rank): block per
    argument x, derivations along columns; written in this layout
    (order C), so the reshape copies nothing."""
    k, n = gens.shape[1], space.algebra.dim
    return np.einsum("rpj,jx->xpr", space.basis, gens, order="C").reshape(k * n * n, space.rank)


def phi_x(space: DerivationSpace, gens: np.ndarray | None = None) -> ModuleSubspace | KernelModule:
    """Image of a derivation space under d -> (d(x))_{x in X}.

    X (columns of gens, the basis of A by default) must generate the
    algebra, so that the map is injective and the dimension does not depend
    on the choice; a given X is checked, the basis spans A. X and its stars
    also supply the right operators. With X the basis, a space that holds
    its kernel (derivation_space) gives a KernelModule, every other a
    ModuleSubspace.
    """
    from .constructions import generates

    alg = space.algebra
    if gens is None:
        gens = np.eye(alg.dim, dtype=complex)
        if space.kernel is not None:
            return KernelModule(space, _right_ops(alg, _with_stars(alg, gens)))
    else:
        gens = np.asarray(gens, dtype=complex)
        if not generates(alg, list(gens.T)):
            raise NotGenerating("argument set does not generate the algebra")
    return ModuleSubspace(
        algebra=alg,
        ncoords=gens.shape[1],
        span=_phi_span(space, gens),
        right_ops=_right_ops(alg, _with_stars(alg, gens)),
        trace_vectors=np.kron(alg.unit, alg.unit)[:, None],
    )


def _cluster_diagonal(mats: np.ndarray, classes: list) -> tuple[list, float]:
    """The blocks of a stack of rotated one-leg matrices on the diagonal
    of the leg's clusters, one (m, count, size, size) array per class, and
    the squared Frobenius norm of everything off them."""
    sizes = [d for _, a, d in classes for _ in range(a)]
    cluster = np.repeat(np.arange(len(sizes)), sizes)
    off = mats[:, cluster[:, None] != cluster]
    diag = [np.einsum("maiaj->maij", mats[:, s : s + a * d, s : s + a * d].reshape(-1, a, d, a, d))
            for s, a, d in classes]
    return diag, float(np.vdot(off, off).real)


def _inner_blocks(alg, gens: np.ndarray, legs: list) -> tuple:
    """The rotated spectral blocks of the inner module, as _gather returns
    them, built from the rotated multiplications (see the module
    docstring). Raises NotRightClosed if the parts off the cluster
    diagonal, which the blocks leave out, exceed _drop_bound."""
    (rot_a, inv_a, ca), (rot_b, inv_b, cb) = legs
    k, n = gens.shape[1], alg.dim
    # left_mult(x) on leg a and right_mult(x) on leg b for every argument x,
    # as in _right_ops
    lefts = np.tensordot(gens.T, alg.mult, axes=(1, 0)).transpose(0, 2, 1)
    rights = np.tensordot(alg.mult, gens, axes=(1, 0)).transpose(2, 1, 0)
    diag_a, off_a = _cluster_diagonal(rot_a @ lefts @ inv_a, ca)
    diag_b, off_b = _cluster_diagonal(rot_b @ rights @ inv_b, cb)
    # off-cluster entry (i', i) of A_c sits in column e_i (x) e_j for every j
    leak2 = n * (off_a + off_b)

    # block (a, b), column e_i (x) e_j, row (c, i', j'):
    # A_c[i', i] delta(j', j) - delta(i', i) B_c[j', j]
    stacks = {}
    for alpha, (_, a, d) in enumerate(ca):
        for beta, (_, b, e) in enumerate(cb):
            term_a = np.einsum("kaxy,zw->akxzyw", diag_a[alpha], np.eye(e))
            term_b = np.einsum("kbzw,xy->bkxzyw", diag_b[beta], np.eye(d))
            stacks[alpha, beta] = (term_a[:, None] - term_b[None]).reshape(a * b, k * d * e, d * e)
    flat = np.concatenate([np.linalg.norm(v, axis=1).ravel() for v in stacks.values()])
    bound = _drop_bound(flat)
    if leak2 > bound**2:
        raise NotRightClosed(
            f"the inner span leaks {np.sqrt(leak2):.3e} out of its spectral blocks, "
            f"above the drop bound {bound:.3e}"
        )
    # one stack per class pair, each block its own component
    where, nblocks = [], 0
    for key, v in stacks.items():
        sel = np.arange(v.shape[0])
        where.append((key, sel, nblocks + sel))
        nblocks += v.shape[0]
    shapes = {key: v.shape[:2] for key, v in stacks.items()}
    return list(stacks.values()), where, shapes, nblocks


def inner_derivation_module(alg, gens: np.ndarray) -> InnerModule:
    """phi_X of the span of commutator derivations, built block by block
    in the rotated coordinates vn_dimension splits by. Scales to algebras
    where the dense Leibniz solve does not.

    The columns are phi_X([., xi]) for xi in the rotated GNS-orthonormal
    basis of L^2(N) (the inverse rotations of _legs); any basis of L^2(N)
    spans the same module, and with this one each column lies in one
    spectral block, since xi -> [x, xi] commutes with the right action.
    Raises NotRightClosed if the columns leak out of their blocks by more
    than the drop bound.
    """
    from .constructions import generates

    gens = np.asarray(gens, dtype=complex)
    if not generates(alg, list(gens.T)):
        raise NotGenerating("argument set does not generate the algebra")
    ops = _right_ops(alg, _with_stars(alg, gens))
    legs = _legs(alg, ops)
    return InnerModule(alg, gens, ops, legs, _inner_blocks(alg, gens, legs))


def restrict_scalars(sub: ModuleSubspace | KernelModule, cp: CrossedProduct) -> ModuleSubspace:
    """View a module over N_big = (A x| G) (x) (A x| G)^op as a module over
    N_0 = A (x) A^op; same span, right action through the inclusion (one
    operator pair per basis element of A and its star), and the trace
    vectors u_g (x) u_h^op, one per sector, in every coordinate. The
    module must hold its span or form it (a KernelModule); an InnerModule
    holds only the blocks of its own right action."""
    if not isinstance(sub, (ModuleSubspace, KernelModule)):
        raise TypeError("restrict_scalars needs a ModuleSubspace, which holds its span")
    if sub.algebra.dim != cp.algebra.dim:
        raise ValueError("module is not over the crossed-product bimodule")
    base = cp.base
    basis = np.eye(base.dim, dtype=complex)
    ops = _right_ops(cp.algebra, [cp.lift(x) for x in _with_stars(base, basis)])
    us = cp.embed_group.T
    traces = np.column_stack([np.kron(ug, uh) for ug in us for uh in us])
    return ModuleSubspace(sub.algebra, sub.ncoords, sub.span, ops, traces)
