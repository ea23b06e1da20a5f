"""von Neumann dimension of right submodules of L^2(N)^k.

A module is a subspace of a direct sum of k copies of L^2(N),
N = A (x) A^op, together with the right action of a coefficient algebra
N_0 (one block operator per element, acting diagonally across the
copies) and a family omega_j of trace vectors of one copy, taken in every
copy: Omega = I_k (x) omega. The dimension is sum_b <P Omega_b, Omega_b>
for the orthogonal projection P onto the subspace, valid once P commutes
with the right action.

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

vn_dimension takes one of two routes, named in DimensionResult.route. A
ModuleSubspace takes the kernel route: it holds the subspace as one
GNS-orthonormal basis kept by connected block (a _linalg.BlockKernel),
and the dimension is read from those blocks. An InnerModule takes the
spectral route: it holds an orthonormal basis of its span by spectral
block of the right action, in rotated leg coordinates, since in a
non-monomial basis the spectral split is its only block structure.

One basis for every span. A ModuleSubspace's basis is in GNS-orthonormal
coordinates, unknown (a * n + b) * k + c being leg a, leg b and copy c,
the layout of the unknown of leibniz_system. Copy c of phi_X(d) is
d(x_c), so for X the basis of A the whitened span of phi_X is the
space's whitened kernel itself, orthonormal and by block, for every
DerivationSpace (derivation_space's and relative_derivations'): phi_x
wraps it as it is. For X other than the basis, phi_X is read through
the argument map on the kernel entries (derivations.argument_map times
the kernel's SparseSystem, so no dense kernel is formed) and
orthonormalized by span_basis, which keeps it by the connected blocks of
its nonzero pattern.
restrict_scalars keeps the basis and changes only the right action and
the trace vectors, and L^2(N) itself (full_module) is the whitened
standard basis, dim A^2 blocks of one unknown each.

The kernel route. P = Q Q^H is block diagonal over the basis blocks,
with no rotation, no block SVD and no rank certificate, since the basis
is orthonormal. The dimension is sum_{c,j} |Q^H Omega_{c,j}|^2,
Omega_{c,j} = omega_j in copy c, summed per block and vector. The closure
test applies the combinations of _test_ops, with the legs in
GNS-orthonormal coordinates (T, T^-1) in place of a rotation, to each
part's blocks laid out by fibers (the n unknowns that differ only on the
operator's leg), gathers the image of each source block onto every target
block it meets, in full, and subtracts Q_t Q_t^H of it there; its
residual is the relative norm below, over all parts at once. A subspace
that is not right-closed fails this test; no other certificate is needed,
since Q spans the subspace itself.
The readout of a Leibniz kernel is backed only for an exact algebra: the
kernel of an inexact one is the exact kernel of a nearby wrong algebra,
orthonormal and right-closed to rounding, which no test here can refuse.
So derivation_space certifies exactness first (algebra.certify_exact),
and so does inner_derivation_module, whose blocks no test here can
refuse either.

The spectral route never forms P densely. A projection commuting with
the right action commutes with every spectral projection of a
self-adjoint element of it (Lueck, L^2-Invariants, ch. 1). So each leg is
rotated into the eigenbasis of a fixed-seed random self-adjoint
combination sum_j t_j (a_j + a_j^*) of its one-leg operators, in
GNS-orthonormal coordinates, and L^2(N)^k splits into blocks
C^k (x) E_a (x) E_b of eigenvalue clusters E_a, E_b, found by
_linalg.spectral_split from SPLIT_SEED. Eigenvalues closer than
_linalg.CLUSTER_GAP (relative) share a cluster: a union of eigenspaces is
still a spectral projection, so merging only coarsens the blocks, while a
split degenerate eigenspace would not be one. An InnerModule holds an
orthonormal basis Q of its span by block, since each of its columns lies
in one block (below). vn_dimension runs the closure test below against
the block-diagonal projector P = Q Q^H at CLOSURE_TOL, applying each
(target cluster, source cluster) block of an operator to the source
cluster's blocks, whose image is laid out as the target cluster's slab
of blocks and projected there (_closure_residual). The dimension is
sum_ab |Q_ab^H Omega_ab|^2, with omega rotated once and read against the
rows of each copy. The rotation is unitary, so for a module this is the
value of the dense projection.

The closure test applies random combinations, not every operator. With
M_j = (1 - P) T_j Q for operators T_1 .. T_m, the residual of
T(t) = sum_j t_j T_j is sum_j t_j M_j, and for iid t_j of unit variance
E |sum_j t_j M_j|^2 = sum_j |M_j|^2 (Frobenius norms; Hutchinson, Comm.
Statist. Simul. Comput. 18, 1989): the span is invariant under every T_j
exactly when the expected residual is zero. So for each leg one
combination sum_j t_j a_j of the leg's one-leg operators is tested, t
iid standard complex Gaussian (E |t_j|^2 = 1) drawn from _CLOSURE_SEED,
in CLOSURE_DRAWS = 2 independent draws: at most 4 applications, against
one per right operator if each were tested alone. The largest residual
is kept. The seed is not SPLIT_SEED: the spectral blocks are spectral
subspaces of the cluster combination sum_j t_j (a_j + a_j^*), so a span
of block parts passes against that combination by construction, and a
test on it would prove nothing.

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
size_a size_b). What the blocks leave out, the parts of A_c and B_c off
the cluster diagonal, has total Frobenius norm
sum_c (n_b |A_c^off|^2 + n_a |B_c^off|^2) over all columns; the builder
certifies it below _drop_bound, a tenth of the rank cut of the largest
block column norm, and raises NotRightClosed otherwise (a split
degenerate eigenspace fails here). By Weyl's inequality what is left out
then moves no singular value by more than a tenth of the cut. The blocks
keep every column: the shared rank cut discards the exact-zero ones, such
as central xi.

What an InnerModule holds. The builder makes one leg a cluster's row of
blocks of a class pair at a time and takes the row's batched SVD at
once, keeping only the left singular vectors; the blocks themselves are
never held together. One rank cut on the union of all the block spectra,
as batched_svd makes it (_linalg.shared_cut), then zeroes the dropped
columns in place, and each class pair keeps the columns up to its
largest block rank, in the same buffer. So the module holds one
orthonormal basis by block, as a ModuleSubspace does, and its rank; the
blocks' vectors take as much room as the blocks. M6 is 36 blocks of
108 x 36, 2.1 MiB, where its span was 80 MB; M8 is 64 blocks of
192 x 64, 12 MiB. Under tracemalloc, building and reading M6 peaks at
about 4.2 MiB and M8 at about 20 MiB.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

# no program code calls gram_onb; the name stays bound only because
# benchmark/tracing.py hooks steinlab.vndim.gram_onb, and goes with that hook
from ._linalg import (  # noqa: F401
    BlockKernel, gram_onb, rank_cut, shared_cut, span_basis, sparse_product, spectral_split,
)
from .algebra import FDAlgebra, certify_exact
from .constructions import CrossedProduct
from .derivations import DerivationSpace, argument_map, whiten
from .errors import NotGenerating, NotRightClosed

# largest relative residual of a right operator's image off the span that
# still counts as right-closed; fixed, independent of any report tolerance
CLOSURE_TOL = 1e-8
# random operator combinations per leg that the closure test applies, from a
# seed of their own: the blocks pass the cluster split's combination by
# construction
CLOSURE_DRAWS = 2
_CLOSURE_SEED = 1
# largest distance of a value from the fraction that as_fraction shows for it
FRACTION_TOL = 1e-6


@dataclass(eq=False)
class ModuleSubspace:
    """Subspace of L^2(N)^ncoords with a right action, held by a
    GNS-orthonormal basis kept by block.

    basis has ncoords * dim A^2 unknowns in GNS-orthonormal coordinates,
    unknown (a * dim A + b) * ncoords + c being leg a, leg b and copy c
    (see the module docstring). right_ops is closed under adjoints as a
    span: the GNS adjoint of each operator lies in the span of the list
    (R(m)* = R(m*) for a trace, so a *-closed generating set gives such a
    list). Raises ValueError unless every right operator is (0 or 1, a
    (dim A, dim A) matrix).
    """

    algebra: FDAlgebra  # A, with N = A (x) A^op
    ncoords: int
    basis: BlockKernel
    right_ops: list  # (leg, matrix) one-leg operators, leg 0 or 1
    # (dim A^2, t): the family omega of one copy, raw coordinates; the
    # trace vectors are omega_j in each coordinate, I_ncoords (x) omega
    trace_vectors: np.ndarray

    def __post_init__(self):
        n = self.algebra.dim
        for op in self.right_ops:
            leg, mat = op if isinstance(op, tuple) and len(op) == 2 else (None, None)
            if not (isinstance(leg, int) and leg in (0, 1) and np.shape(mat) == (n, n)):
                raise ValueError(f"a right operator is (leg 0 or 1, a ({n}, {n}) matrix)")


@dataclass(eq=False)
class InnerModule:
    """phi_X of the span of commutator derivations, X the columns of gens,
    held as one orthonormal basis by spectral block in the rotated
    coordinates of the legs, and its rank (see inner_derivation_module);
    the span itself is never formed."""

    algebra: FDAlgebra
    gens: np.ndarray  # (dim A, ncoords), the argument set X
    right_ops: list  # as in ModuleSubspace
    legs: list  # the leg splits of _legs for algebra and right_ops
    # class pair -> the bases (count, rows, rho) of its blocks, leg a
    # major, zero columns past each block's rank
    basis: dict
    rank: int

    @property
    def ncoords(self) -> int:
        return self.gens.shape[1]


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


def _leg_split(alg: FDAlgebra, ops: list) -> tuple:
    """(rot, inv, classes) for one tensor leg L^2(alg): rot maps basis
    coordinates to GNS-orthonormal ones in the eigenbasis of a random
    self-adjoint combination of the leg's operators, inv = rot^-1, and
    classes lists (start, count, size) per cluster size, the clusters of
    one size consecutive, by spectral_split."""
    t, ti, n = alg.onb_factor, alg.onb_inverse, alg.dim
    if not ops:
        return t, ti, [(0, 1, n)]
    vec, bounds = spectral_split(t @ np.array(ops) @ ti)
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
    P = Q Q^H; basis maps each class pair to its stack of block bases.

    T is applied one (target cluster, source cluster) block at a time, to
    the source cluster's blocks of one class pair, one per cluster of the
    other leg. Contracting the operator's leg of each block's rows lays
    the image out as the target cluster's slab of blocks, whose projection
    is subtracted there; the slab's adjoint is formed once per source
    class pair and target cluster. So each step holds one slab and one
    source cluster's image.
    """
    leg, mat = op
    classes = legs[leg][2]
    rem2 = img2 = 0.0
    for key, q in basis.items():
        if not q.size:  # no basis vectors here, so no image
            continue
        (_, a, d), (_, b, e) = legs[0][2][key[0]], legs[1][2][key[1]]
        s, _, size = classes[key[leg]]
        rho = q.shape[2]
        # each source cluster's blocks as views, the operator's leg on the
        # axis a cluster block of T contracts; blocks are stored leg a major
        if leg == 0:
            srcs = [q[i * b : (i + 1) * b].reshape(b, ncoords, d, e * rho) for i in range(a)]
        else:
            srcs = [q[i::b].reshape(a, ncoords * d, e, rho) for i in range(b)]
        for c2, (s2, a2, d2) in enumerate(classes):
            target = basis[(c2, key[1]) if leg == 0 else (key[0], c2)]
            for i2 in range(a2):
                slab = target[i2 * b : (i2 + 1) * b] if leg == 0 else target[i2::a2]
                adj = slab.conj().transpose(0, 2, 1)
                rows = mat[s2 + i2 * d2 : s2 + (i2 + 1) * d2]
                for i, src in enumerate(srcs):
                    img = np.matmul(rows[:, s + i * size : s + (i + 1) * size], src)
                    img = img.reshape(len(src), -1, rho)
                    img2 += np.vdot(img, img).real
                    img -= slab @ (adj @ img)
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
    with these right operators: one _leg_split per tensor leg, each drawn
    from _linalg.SPLIT_SEED, so the same inputs give the same rotation."""
    return [_leg_split(alg, [m for l, m in right_ops if l == leg]) for leg in (0, 1)]


def _drop_bound(top: float) -> float:
    """Largest total Frobenius norm of block column parts that may be left
    out of the blocks, top being the largest column norm of a block: the
    largest singular value of the blocks is at least top, so the rank cut
    is at least rank_cut of it, and parts this small move no singular
    value by more than a tenth of the cut (Weyl)."""
    return rank_cut(top) / 10


def _leading_columns(u: np.ndarray, rho: int) -> np.ndarray:
    """u[:, :, :rho] as a contiguous stack in u's own buffer. Each block
    moves down into the room of the columns left out, never onto a later
    block, so no second copy of the stack is held."""
    count, rows, width = u.shape
    if rho == width:
        return u
    out = u.reshape(-1)[: count * rows * rho].reshape(count, rows, rho)
    for j in range(count):
        out[j] = u[j, :, :rho]
    return out


def vn_dimension(sub: ModuleSubspace | InnerModule) -> DimensionResult:
    """Trace of the span projection against the trace vectors.

    A ModuleSubspace is read from its basis blocks (_kernel_dimension). An
    InnerModule takes the spectral route, which reads the block-diagonal
    basis the module holds and makes no SVD. Both routes test the
    operators of _test_ops, random combinations of each leg's operators,
    against the block-diagonal projector (see the module docstring).
    Raises NotRightClosed if some test operator's image leaves the span by
    more than CLOSURE_TOL (relative); the result's closure_residual is the
    largest of these residuals. Since right_ops is closed under adjoints,
    invariance under each operator already gives invariance under its
    adjoint.
    """
    if not isinstance(sub, InnerModule):
        return _kernel_dimension(sub)
    k, legs = sub.ncoords, sub.legs
    ops = _test_ops(sub.right_ops, legs)
    worst = max((_closure_residual(op, sub.basis, legs, k) for op in ops), default=0.0)
    if worst > CLOSURE_TOL:
        raise NotRightClosed(f"commutant residual {worst:.3e} above {CLOSURE_TOL}")

    # omega = 1 (x) 1 is rotated once, leg by leg, and read against the rows
    # of every coordinate, one leg a cluster's blocks at a time
    (rot_a, _, _), (rot_b, _, cb) = legs
    omega = np.kron(sub.algebra.unit, sub.algebra.unit).reshape(len(rot_a), len(rot_b))
    omegas = _class_blocks(np.matmul(rot_b, (rot_a @ omega)[..., None])[None], legs)
    value = 0.0
    for key, q in sub.basis.items():
        (count, rows, rho), b = q.shape, cb[key[1]][1]
        w = _block_stack(omegas[key])[:, None]
        overlaps = np.empty((count, rho, k, 1), dtype=complex)
        for lo in range(0, count, b):
            qh = q[lo : lo + b].conj().transpose(0, 2, 1).reshape(b, rho, k, rows // k)
            np.matmul(qh, w[lo : lo + b], out=overlaps[lo : lo + b])
        value += float(np.sum(np.abs(overlaps) ** 2))
    return DimensionResult(value, sub.rank, worst, "spectral")


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


def _kernel_dimension(sub: ModuleSubspace) -> DimensionResult:
    """vn_dimension of a ModuleSubspace from its basis blocks (see the
    module docstring)."""
    alg, kernel, k = sub.algebra, sub.basis, sub.ncoords
    n, t = alg.dim, alg.onb_factor
    index = _kernel_index(kernel)
    fibers = [_kernel_fibers(kernel, n, stride) for stride in (n * k, k)]
    worst = 0.0
    for leg, mat in _test_ops(sub.right_ops, [(t, alg.onb_inverse, None)] * 2):
        img2, rem2 = _kernel_residual(mat, kernel, fibers[leg], index)
        worst = max(worst, float(np.sqrt(rem2) / max(1.0, np.sqrt(img2))))
    if worst > CLOSURE_TOL:
        raise NotRightClosed(f"commutant residual {worst:.3e} above {CLOSURE_TOL}")
    # <Q_v, Omega_cj> for Omega_cj = omega_j in copy c, per block, copy,
    # vector and trace vector
    omega = whiten(alg, sub.trace_vectors)
    value, nt = 0.0, omega.shape[1]
    for cols, vecs, _ in kernel.parts:
        m, c, d = vecs.shape
        q, copy = np.divmod(cols, k)
        prod = (vecs.conj()[..., None] * omega[q][:, :, None]).ravel()
        idx = (((np.arange(m)[:, None] * k + copy)[..., None, None] * d
                + np.arange(d)[:, None]) * nt + np.arange(nt)).ravel()
        value += float(np.sum(np.bincount(idx, prod.real) ** 2 + np.bincount(idx, prod.imag) ** 2))
    return DimensionResult(value, kernel.shape[1], worst, "kernel")


def as_fraction(x: float, max_den: int) -> Fraction | None:
    """Nearest p/q with q <= max_den if within FRACTION_TOL, for report
    cosmetics."""
    frac = Fraction(x).limit_denominator(max_den)
    if abs(float(frac) - x) <= FRACTION_TOL:
        return frac
    return None


# -- builders -----------------------------------------------------------------

def _argument_set(alg, gens) -> np.ndarray:
    """gens as a complex (dim A, k) array, one argument per column. Raises
    ValueError unless it is one with finite entries, and NotGenerating if
    its columns do not generate alg."""
    from .constructions import generates

    gens = np.asarray(gens, dtype=complex)
    if gens.ndim != 2 or gens.shape[0] != alg.dim or not np.isfinite(gens).all():
        raise ValueError(f"gens must be a finite ({alg.dim}, k) array, one argument per column")
    if not generates(alg, list(gens.T)):
        raise NotGenerating("argument set does not generate the algebra")
    return gens


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
    rights, lefts = alg.right_mult(xs), alg.left_mult(xs)
    return [op for r, l in zip(rights, lefts) for op in ((0, r), (1, l))]


def phi_x(space: DerivationSpace, gens: np.ndarray | None = None) -> ModuleSubspace:
    """Image of a derivation space under d -> (d(x))_{x in X}.

    X (columns of gens, the basis of A by default) must generate the
    algebra, so that the map is injective and the dimension does not depend
    on the choice; a given X is checked (_argument_set), the basis spans A.
    X and its stars also supply the right operators. With X the basis, the
    space's whitened kernel is the module's basis as it is; for any other
    X, phi_X's whitened span is derivations.argument_map applied to the
    kernel's entries, orthonormalized by span_basis.
    """
    alg = space.algebra
    if gens is None:
        gens, basis = np.eye(alg.dim, dtype=complex), space.kernel
    else:
        gens = _argument_set(alg, gens)
        basis = span_basis(sparse_product(argument_map(alg, gens), space.kernel.sparse()))
    return ModuleSubspace(alg, gens.shape[1], basis, _right_ops(alg, _with_stars(alg, gens)),
                          np.kron(alg.unit, alg.unit)[:, None])


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


def _inner_basis(alg, gens: np.ndarray, legs: list) -> tuple[dict, int]:
    """The orthonormal basis of the inner module by rotated spectral block,
    as InnerModule.basis holds it, and its rank.

    The blocks are built from the rotated multiplications (see the module
    docstring) one leg a cluster's row of them at a time, and each row is
    taken by its SVD at once; only the left singular vectors are kept. One
    cut on the union of the spectra (shared_cut) then zeroes the dropped
    columns in place. Raises NotRightClosed if the parts off the cluster
    diagonal, which the blocks leave out, exceed _drop_bound.
    """
    (rot_a, inv_a, ca), (rot_b, inv_b, cb) = legs
    k, n = gens.shape[1], alg.dim
    # left_mult(x) on leg a and right_mult(x) on leg b for every argument x
    diag_a, off_a = _cluster_diagonal(rot_a @ alg.left_mult(gens.T) @ inv_a, ca)
    diag_b, off_b = _cluster_diagonal(rot_b @ alg.right_mult(gens.T) @ inv_b, cb)
    # off-cluster entry (i', i) of A_c sits in column e_i (x) e_j for every j
    leak2 = n * (off_a + off_b)

    # block (a, b), column e_i (x) e_j, row (c, i', j'):
    # A_c[i', i] delta(j', j) - delta(i', i) B_c[j', j]
    bases, spectra, top = {}, {}, 0.0
    for alpha, (_, a, d) in enumerate(ca):
        for beta, (_, b, e) in enumerate(cb):
            term_b = np.einsum("kbzw,xy->bkxzyw", diag_b[beta], np.eye(d))
            u = bases[alpha, beta] = np.empty((a * b, k * d * e, d * e), dtype=complex)
            s = spectra[alpha, beta] = np.empty((a * b, d * e))
            for i in range(a):
                term_a = np.einsum("kxy,zw->kxzyw", diag_a[alpha][:, i], np.eye(e))
                row = (term_a - term_b).reshape(b, k * d * e, d * e)
                top = max(top, float(np.linalg.norm(row, axis=1).max()))
                u[i * b : (i + 1) * b], s[i * b : (i + 1) * b], _ = np.linalg.svd(
                    row, full_matrices=False)
    bound = _drop_bound(top)
    if leak2 > bound**2:
        raise NotRightClosed(
            f"the inner span leaks {np.sqrt(leak2):.3e} out of its spectral blocks, "
            f"above the drop bound {bound:.3e}"
        )
    rank = 0
    for key, kept in zip(spectra, shared_cut(list(spectra.values()))):
        np.multiply(bases[key], kept[:, None, :], out=bases[key])
        bases[key] = _leading_columns(bases[key], int(kept.sum(axis=1).max()))
        rank += int(kept.sum())
    return bases, rank


def inner_derivation_module(alg, gens: np.ndarray) -> InnerModule:
    """phi_X of the span of commutator derivations, held as an orthonormal
    basis by block in the rotated coordinates vn_dimension splits by
    (_inner_basis). Scales to algebras where the dense Leibniz solve does
    not.

    The columns are phi_X([., xi]) for xi in the rotated GNS-orthonormal
    basis of L^2(N) (the inverse rotations of _legs); any basis of L^2(N)
    spans the same module, and with this one each column lies in one
    spectral block, since xi -> [x, xi] commutes with the right action.
    gens is checked as phi_x checks it (_argument_set). Raises
    InexactAlgebra unless alg passes algebra.certify_exact, and
    NotRightClosed if the columns leak out of their blocks by more than the
    drop bound.
    """
    certify_exact(alg)
    gens = _argument_set(alg, gens)
    ops = _right_ops(alg, _with_stars(alg, gens))
    legs = _legs(alg, ops)
    return InnerModule(alg, gens, ops, legs, *_inner_basis(alg, gens, legs))


def restrict_scalars(sub: ModuleSubspace, cp: CrossedProduct) -> ModuleSubspace:
    """View a module over N_big = (A x| G) (x) (A x| G)^op as a module over
    N_0 = A (x) A^op; same basis, right action through the inclusion (one
    operator pair per basis element of A and its star), and the trace
    vectors u_g (x) u_h^op, one per sector, in every coordinate. An
    InnerModule holds its basis only in the blocks of its own right action
    and is refused."""
    if not isinstance(sub, ModuleSubspace):
        raise TypeError("restrict_scalars needs a ModuleSubspace, which holds its basis")
    if sub.algebra.dim != cp.algebra.dim:
        raise ValueError("module is not over the crossed-product bimodule")
    base = cp.base
    basis = np.eye(base.dim, dtype=complex)
    ops = _right_ops(cp.algebra, [cp.lift(x) for x in _with_stars(base, basis)])
    us = cp.embed_group.T
    # kron(u_g, u_h) in column g |G| + h
    traces = np.einsum("ga,hb->abgh", us, us).reshape(cp.algebra.dim**2, -1)
    return ModuleSubspace(sub.algebra, sub.ncoords, sub.basis, ops, traces)


def full_module(alg: FDAlgebra) -> ModuleSubspace:
    """L^2(alg (x) alg^op) itself with no right operators: the whitened
    standard basis, dim A^2 blocks of one unknown with vector 1."""
    nn = alg.dim**2
    ones = np.ones((nn, 1, 1), dtype=complex)
    basis = BlockKernel(nn, ((np.arange(nn)[:, None], ones, np.arange(nn)),))
    return ModuleSubspace(alg, 1, basis, [], np.kron(alg.unit, alg.unit)[:, None])
