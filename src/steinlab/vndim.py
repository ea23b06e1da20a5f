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

One module type. A ModuleSubspace holds its subspace as one orthonormal
basis kept by block (a _linalg.BlockKernel) in the coordinates of its
legs: unknown (a * n + b) * k + c is leg a, leg b and copy c, n = dim A,
and each leg is read through its (rot, rot^-1), rot mapping the leg's raw
coordinates to GNS-orthonormal ones. phi_x and full_module take the
GNS-orthonormal coordinates themselves, rot = onb_factor, in which the
unknown is that of leibniz_system; inner_derivation_module rotates each
leg further into the algebra's spectral coordinates,
FDAlgebra.spectral_legs (below).
DimensionResult.route names the coordinates: "kernel" for the
GNS-orthonormal ones, "spectral" for the rotated ones. vn_dimension reads
both alike, and restrict_scalars keeps the basis and its coordinates and
changes only the right action and the trace vectors.

One basis for every span. Copy c of phi_X(d) is d(x_c), so for X the
basis of A the whitened span of phi_X is the space's whitened kernel
itself, orthonormal and by block, for every DerivationSpace
(derivation_space's and relative_derivations'): phi_x wraps it as it is.
For X other than the basis, phi_X is read through the argument map on the
kernel entries (derivations.argument_map times the kernel's SparseSystem,
so no dense kernel is formed) and orthonormalized by span_basis, which
keeps it by the connected blocks of its nonzero pattern. L^2(N) itself
(full_module) is the whitened standard basis, dim A^2 blocks of one
unknown each.

The readout. P = Q Q^H is block diagonal over the basis blocks, with no
block SVD and no rank certificate, since the basis is orthonormal. The
dimension is sum_{c,j} |Q^H Omega_{c,j}|^2, Omega_{c,j} = omega_j in copy
c, taken into the module's coordinates and summed per block, copy, vector
and trace vector, for as many blocks at a time as hold about k n^2
products per trace vector (_readout). Every rot is a unitary image of the
GNS-orthonormal coordinates, so this is the value of the GNS projection.
The readout of a Leibniz kernel is backed only for an exact algebra: the
kernel of an inexact one is the exact kernel of a nearby wrong algebra,
orthonormal and right-closed to rounding, which no test here can refuse.
So derivation_space certifies exactness first (algebra.certify_exact),
and so does inner_derivation_module, whose blocks no test here can
refuse either.

The closure test. For each leg, _test_ops gives CLOSURE_DRAWS operators
T on that leg, in the module's coordinates, each with its vector z of iid
standard complex Gaussian coefficients, one per basis vector. One stacked
pass per leg (_sketch_residual) forms every v = Q z from the blocks,
applies each T to its v and subtracts P T v in place, block by block.
Each residual is |(1 - P) T Q z| / max(1, |T Q z|), and the largest one
is kept. The vectors are held draw-major, one row of k n^2 entries per
draw, so beyond the basis the pass holds two stacks of CLOSURE_DRAWS
vectors of k n^2 entries (the v and their images) and one part's gather
of the images. A subspace that is not right-closed fails this test; no
other certificate is needed, since Q spans the subspace itself.

The test applies random combinations to one random vector of the span,
not every operator to every basis vector. With M_j = (1 - P) T_j Q for
operators T_1 .. T_m, the residual of T(t) = sum_j t_j T_j on Q z is
sum_j t_j M_j z, and for iid t_j and z_i of unit variance
E |sum_j t_j M_j z|^2 = sum_j |M_j|^2 (Frobenius norms; Hutchinson,
Comm. Statist. Simul. Comput. 18, 1989): the span is invariant under
every T_j exactly when the expected residual is zero. So for each leg one
combination sum_j t_j a_j of the leg's one-leg operators is tested, t iid
standard complex Gaussian (E |t_j|^2 = 1) drawn from _CLOSURE_SEED, in
CLOSURE_DRAWS = 4 independent draws, and then one z per combination from
the same generator: at most 8 combinations, each applied to its own
vector. The numbers are read in that order, one combination at a time,
from one standard_normal call of their summed length (_closure_draws),
and each leg's combinations are then applied in one pass. The seed
is not SPLIT_SEED: the spectral blocks are spectral subspaces of the
split's operators R(h) and L(h) (below), so a span of block parts passes
against them by construction, and a test on them would prove nothing.

The chance of a miss. Let a_i have relative residual
rho = |M_i| / max(1, |a_i Q|) > CLOSURE_TOL, and let one draw read its
residual against CLOSURE_TOL s, s = max(1, |T(t) Q z|), taking the scale
s as given. Fix z and every t_j but t_i: the residual is t_i w + C,
w = M_i z, for a fixed C, and its norm is at least
|t_i |w| + <w, C> / |w||. So the draw misses only if t_i lies in a disc
of radius CLOSURE_TOL s / |w|, and no disc of radius r has more standard
complex Gaussian measure than the centred one, 1 - e^(-r^2) (Anderson's
inequality). With c = (CLOSURE_TOL s / |M_i|)^2 and Y = |w|^2 / |M_i|^2,
the draw misses with probability at most E h(Y), h(y) = 1 - e^(-c/y).
For the singular values sigma_k and right singular vectors v_k of M_i,
Y = sum_k p_k X_k with p_k = sigma_k^2 / |M_i|^2, summing to 1, and
X_k = |<v_k, z>|^2 iid Exp(1). h is concave below c/2 and convex above,
so g, its tangent at c/2 below c/2 and h above, is convex and at least h,
and by Jensen's inequality E g(Y) <= sum_k p_k E g(X_k) = E g(X), X one
Exp(1): a rank-one M_i is the worst case. Against
E min(1, c/X) = 1 - e^(-c) + c E_1(c), E g(X) gains at most
e^(-2) c^2 / 24 below c/2 (g - 1 = e^(-2) (1 - 4 y / c) there, odd about
c/4 against the decreasing e^(-y)), loses at least e^(-2) c e^(-c) / 2
between c/2 and c (h <= 1 - e^(-2) there) and loses above c
(h <= c / y). So while c e^c < 12, one draw misses with probability at
most 1 - e^(-c) + c E_1(c). Since E |T(t) Q z|^2 = sum_j |T_j Q|^2, the
ratio of scales s / max(1, |a_i Q|) is about sqrt(m) for m operators of
one size, and c is about m (CLOSURE_TOL / rho)^2. For m = 9 that is
c = 9e-8 and a bound of 1.5e-6 at rho = 1e-4, but c = 0.09 and a bound
of 0.26 at rho = 10 CLOSURE_TOL. The draws are independent and a miss of
their maximum needs each of them to miss, so the 4 draws take the fourth
power: 0.0045 there, where two draws of a combination on the whole basis
gave 0.008. The seed is fixed, so the same module always gets the same
verdict.

inner_derivation_module builds its blocks directly and never forms the
span. A projection commuting with the right action commutes with every
spectral projection of a self-adjoint element of it (Lueck,
L^2-Invariants, ch. 1). phi_X(Der A) is a right module over all of
N = A (x) A^op, whatever X is, since [., xi] n = [., xi n]; so the split
is the algebra's, made once and held (FDAlgebra.spectral_legs): for one
random self-adjoint h = x + x^* of A, x drawn by _linalg.spectral_split
from SPLIT_SEED, leg a is rotated into the eigenbasis of R(h) and leg b
into that of L(h), in GNS-orthonormal coordinates, and L^2(N)^k splits
into blocks C^k (x) E_a (x) E_b of eigenvalue clusters E_a, E_b. Each
operator is formed as one multiplication by h, never as a stack. For a
generic h every block M_n of A gives each leg n clusters of n, the finest
split. A split by the operators of X alone can be coarser: for the
generating basis elements S of matrix-unit M_n it gives each leg one
cluster of n (n - 2), whose blocks grow as n^8. Eigenvalues closer than
_linalg.CLUSTER_GAP (relative) share a cluster: a union of eigenspaces is
still a spectral projection, so merging only coarsens the blocks, while a
split degenerate eigenspace would not be one. The columns are
phi_X([., xi]) for xi = e_i (x) e_j in the rotated GNS-orthonormal bases
of the legs; in these coordinates the column of argument x_c is
kron(A_c e_i, e_j) - kron(e_i, B_c e_j), with
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
degenerate eigenspace fails here). The argument set enters only here,
through A_c and B_c, and in the closure test, which applies the
operators of X. By Weyl's inequality what is left out
then moves no singular value by more than a tenth of the cut. The blocks
keep every column: the shared rank cut discards the exact-zero ones, such
as central xi.

What the inner module holds. The builder makes one leg a cluster's row of
blocks of a class pair (clusters of one size on each leg) at a time and
takes the row's batched SVD at once, keeping only the left singular
vectors; the blocks themselves are never held together. One rank cut on
the union of all the block spectra, as batched_svd makes it
(_linalg.shared_cut), then keeps a prefix of each block's vectors. The
blocks of one rank form one part of the BlockKernel: a class pair's most
common rank moves down in its own buffer (_leading_columns), the others
are copied out first, and parts of one shape from several class pairs
are joined. The blocks' vectors take as much room as the blocks. At
multimatrix_generators (k = 3), M6 is 36 blocks of 108 x 35, 2.1 MiB,
where its span was 80 MB; M8 is 64 blocks of 192 x 63, 12 MiB. Under
tracemalloc, building and reading M6 peaks at about 4.7 MiB and M8 at
about 20 MiB. At the k generating basis elements S that `steinlab dim`
reads, M7 (k = 13) is 49 blocks of 637 x 49 and peaks at about 39 MiB,
M8 (k = 15) 64 blocks of 960 x 64 and about 95 MiB. Before it forms a
block the builder counts what it will hold, the kept bases and the
largest row's working set (_inner_bytes), and raises DenseLimitExceeded
above _linalg.DENSE_LIMIT.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

# no program code calls gram_onb; the name stays bound only because
# benchmark/tracing.py hooks steinlab.vndim.gram_onb, and goes with that hook
from ._linalg import (  # noqa: F401
    BlockKernel, check_dense, gram_onb, rank_cut, shared_cut, span_basis, sparse_product,
)
from .algebra import FDAlgebra, certify_exact
from .constructions import CrossedProduct
from .derivations import DerivationSpace, apply_pair, argument_map
from .errors import NotGenerating, NotRightClosed

# largest relative residual of a right operator's image off the span that
# still counts as right-closed; fixed, independent of any report tolerance
CLOSURE_TOL = 1e-8
# random operator combinations per leg that the closure test applies, each to
# one random vector of the span, from a seed of their own: the blocks pass
# the cluster split's combination by construction
CLOSURE_DRAWS = 4
_CLOSURE_SEED = 1
# largest distance of a value from the fraction that as_fraction shows for it
FRACTION_TOL = 1e-6


@dataclass(eq=False)
class ModuleSubspace:
    """Subspace of L^2(N)^ncoords with a right action, held by an
    orthonormal basis kept by block in the coordinates of its legs.

    basis has ncoords * dim A^2 unknowns, unknown
    (a * dim A + b) * ncoords + c being leg a, leg b and copy c. legs gives
    each leg's coordinates as (rot, rot^-1), rot mapping raw coordinates to
    GNS-orthonormal ones; None stands for (onb_factor, onb_inverse) on both
    legs (see the module docstring). right_ops is closed under adjoints as
    a span: the GNS adjoint of each operator lies in the span of the list
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
    legs: tuple | None = None

    def __post_init__(self):
        n = self.algebra.dim
        for op in self.right_ops:
            leg, mat = op if isinstance(op, tuple) and len(op) == 2 else (None, None)
            if not (isinstance(leg, int) and leg in (0, 1) and np.shape(mat) == (n, n)):
                raise ValueError(f"a right operator is (leg 0 or 1, a ({n}, {n}) matrix)")


@dataclass
class DimensionResult:
    value: float
    rank: int
    # largest relative residual |(1 - P) T Q z| / max(1, |T Q z|) over the
    # closure test's operators T, each with its random vector z of the span;
    # not over each right operator
    closure_residual: float
    # the basis coordinates: "kernel" (GNS-orthonormal) or "spectral"
    # (rotated by the right action), see the module docstring
    route: str

    def __float__(self) -> float:
        return self.value


def _closure_draws(counts: list, rank: int) -> list:
    """The closure test's random numbers: (leg, t, z) for each leg with
    counts[leg] > 0 operators, t (CLOSURE_DRAWS, counts[leg]) and
    z (CLOSURE_DRAWS, rank), iid standard complex Gaussian (x + i y) / sqrt(2),
    E |t|^2 = 1. They are read from _CLOSURE_SEED in the order of one
    combination at a time: t for each draw and each leg, then one z per
    combination in the same order, x and y of each as two consecutive runs.
    One standard_normal call of the summed length gives that sequence."""
    legs = [leg for leg, count in enumerate(counts) if count]
    per_draw = 2 * sum(counts)
    raw = np.random.default_rng(_CLOSURE_SEED).standard_normal(
        CLOSURE_DRAWS * (per_draw + 2 * len(legs) * rank))
    ts = raw[: CLOSURE_DRAWS * per_draw].reshape(CLOSURE_DRAWS, per_draw)
    zs = raw[CLOSURE_DRAWS * per_draw :].reshape(CLOSURE_DRAWS, len(legs), 2, rank)

    def gaussian(xy):
        return (xy[:, 0] + 1j * xy[:, 1]) / np.sqrt(2)

    out, at = [], 0
    for i, leg in enumerate(legs):
        t = ts[:, at : at + 2 * counts[leg]].reshape(CLOSURE_DRAWS, 2, counts[leg])
        at += 2 * counts[leg]
        out.append((leg, gaussian(t), gaussian(zs[:, i])))
    return out


def _test_ops(ops: list, legs: tuple, rank: int) -> list:
    """The closure test's (leg, mats, z) for each leg with operators:
    mats (CLOSURE_DRAWS, n, n) holds one combination sum_j t_j a_j of the
    leg's operators a_j per draw, in the coordinates (rot, rot^-1) of its
    leg, and z (CLOSURE_DRAWS, rank) one vector of coefficients of the
    basis vectors per combination, t and z from _closure_draws (see the
    module docstring)."""
    mats = [np.array([m for l, m in ops if l == leg]) for leg in (0, 1)]
    out = []
    for leg, t, z in _closure_draws([len(m) for m in mats], rank):
        rot, inv = legs[leg]
        out.append((leg, rot @ np.tensordot(t, mats[leg], axes=1) @ inv, z))
    return out


def _sketch_residual(basis: BlockKernel, ncoords: int, leg: int, mats: np.ndarray,
                     z: np.ndarray) -> np.ndarray:
    """|(1 - P) T Q z| / max(1, |T Q z|) for each draw, T = mats[draw] on
    leg leg and z = z[draw], in the basis's coordinates, the basis Q and
    P = Q Q^H, all draws in one pass. The vectors are held draw-major,
    one row of k n^2 entries per draw; Q z is formed from the blocks, z
    read part by part, and P is subtracted in place one part's blocks at
    a time, the blocks' unknowns being disjoint."""
    draws, n = mats.shape[:2]
    v = np.zeros((draws, basis.ncols), dtype=complex)
    at = 0
    for cols, vecs, _ in basis.parts:
        m, _, d = vecs.shape
        coef = z[:, at : at + m * d].reshape(draws, m, d).transpose(1, 2, 0)
        v.T[cols] = np.matmul(vecs, coef)
        at += m * d
    if leg == 0:
        img = np.matmul(mats, v.reshape(draws, n, -1)).reshape(draws, -1)
    else:
        img = np.matmul(mats[:, None], v.reshape(draws, n, n, ncoords)).reshape(draws, -1)
    del v
    scale = np.maximum(1.0, np.linalg.norm(img, axis=1))
    for cols, vecs, _ in basis.parts:
        part = img.T[cols]
        # Q_b^H of the image, conjugating the gather in place, not the blocks
        coef = np.conjugate(np.matmul(vecs.transpose(0, 2, 1), np.conjugate(part, out=part)))
        np.conjugate(part, out=part)
        part -= np.matmul(vecs, coef)
        img.T[cols] = part
    return np.linalg.norm(img, axis=1) / scale


def _readout(basis: BlockKernel, omega: np.ndarray, ncoords: int) -> float:
    """sum_{c,j} |Q^H Omega_{c,j}|^2 for the basis Q and Omega_{c,j} =
    column j of omega (dim A^2, t), in the basis's coordinates, in copy c.

    Each overlap, per block, copy, vector and trace vector, is a bincount
    of the products over the block's unknowns, for as many blocks at a time
    as hold about ncols products per trace vector. A block's overlaps are
    summed in one order however the blocks are cut, and the squares of a
    part in one sum."""
    k, nt = ncoords, omega.shape[1]
    value = 0.0
    for cols, vecs, _ in basis.parts:
        m, c, d = vecs.shape
        size = k * d * nt  # overlaps per block
        re, im = np.zeros(m * size), np.zeros(m * size)
        step, top = max(1, basis.ncols // (c * d)), 0
        for lo in range(0, m, step):
            q, copy = np.divmod(cols[lo : lo + step], k)
            prod = (vecs[lo : lo + step].conj()[..., None] * omega[q][:, :, None]).ravel()
            idx = (((np.arange(len(q))[:, None] * k + copy)[..., None, None] * d
                    + np.arange(d)[:, None]) * nt + np.arange(nt)).ravel()
            at = slice(lo * size, (lo + len(q)) * size)
            re[at] = np.bincount(idx, prod.real, minlength=len(q) * size)
            im[at] = np.bincount(idx, prod.imag, minlength=len(q) * size)
            top = lo * size + int(idx.max()) + 1
        value += float(np.sum(re[:top] ** 2 + im[:top] ** 2))
    return value


def _drop_bound(top: float) -> float:
    """Largest total Frobenius norm of block column parts that may be left
    out of the blocks, top being the largest column norm of a block: the
    largest singular value of the blocks is at least top, so the rank cut
    is at least rank_cut of it, and parts this small move no singular
    value by more than a tenth of the cut (Weyl)."""
    return rank_cut(top) / 10


def _leading_columns(u: np.ndarray, sel: np.ndarray, rho: int) -> np.ndarray:
    """u[sel, :, :rho], sel increasing, as a contiguous stack in u's own
    buffer. Each block moves down into the room of the blocks and columns
    left out, never onto a later block, so no second copy of the stack is
    held."""
    count, rows, width = u.shape
    if rho == width and len(sel) == count:
        return u
    out = u.reshape(-1)[: len(sel) * rows * rho].reshape(len(sel), rows, rho)
    for j, b in enumerate(sel):
        out[j] = u[b, :, :rho]
    return out


def vn_dimension(sub: ModuleSubspace) -> DimensionResult:
    """Trace of the span projection against the trace vectors, read from
    the basis blocks in the module's coordinates (_readout).

    Raises NotRightClosed if, for some operator of _test_ops, a random
    combination of one leg's operators applied to a random vector of the
    span, the image leaves the span by more than CLOSURE_TOL (relative,
    _sketch_residual, one stacked pass per leg); the result's
    closure_residual is the largest of these residuals. Since right_ops
    is closed under adjoints, invariance under each operator already
    gives invariance under its adjoint.
    """
    alg, basis, k = sub.algebra, sub.basis, sub.ncoords
    legs = sub.legs or 2 * ((alg.onb_factor, alg.onb_inverse),)
    ops = _test_ops(sub.right_ops, legs, basis.shape[1])
    worst = max((float(_sketch_residual(basis, k, *op).max()) for op in ops), default=0.0)
    if worst > CLOSURE_TOL:
        raise NotRightClosed(f"commutant residual {worst:.3e} above {CLOSURE_TOL}")
    omega = apply_pair(alg.onb_map if sub.legs is None else (legs[0][0], legs[1][0]),
                       sub.trace_vectors)
    route = "kernel" if sub.legs is None else "spectral"
    return DimensionResult(_readout(basis, omega, k), basis.shape[1], worst, route)


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
        gens, basis, ops = np.eye(alg.dim, dtype=complex), space.kernel, alg.basis_right_ops
    else:
        gens = _argument_set(alg, gens)
        basis = span_basis(sparse_product(argument_map(alg, gens), space.kernel.sparse()))
        ops = alg.right_ops(alg.with_stars(gens))
    return ModuleSubspace(alg, gens.shape[1], basis, list(ops), np.kron(alg.unit, alg.unit)[:, None])


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


def _inner_bytes(k: int, ca: tuple, cb: tuple) -> int:
    """Bytes _inner_basis allocates for k arguments and the leg classes ca
    and cb: every block's left singular vectors and spectrum, kept until
    the cut, and the largest row's working set, both einsum terms, the row
    and the U, Vh and spectrum of its SVD (complex entries of 16 bytes,
    real ones of 8)."""
    # (blocks, blocks per row, rows, columns) of each class pair's blocks
    pairs = [(a * b, b, k * d * e, d * e) for _, a, d in ca for _, b, e in cb]
    kept = sum(m * (16 * r * c + 8 * c) for m, _, r, c in pairs)
    return kept + max(16 * (r * c + 3 * b * r * c + b * c * c) + 8 * b * c for _, b, r, c in pairs)


def _inner_basis(alg, gens: np.ndarray) -> BlockKernel:
    """The orthonormal basis of the inner module by rotated spectral block,
    in the rotated coordinates of alg.spectral_legs.

    The blocks are built from the rotated multiplications (see the module
    docstring) one leg a cluster's row of them at a time, and each row is
    taken by its SVD at once; only the left singular vectors are kept. One
    cut on the union of the spectra (shared_cut) then keeps a prefix of
    each block's vectors, and the blocks of one shape and rank form one
    part. Raises DenseLimitExceeded before any block is formed if they
    need more than _linalg.DENSE_LIMIT bytes (_inner_bytes), and
    NotRightClosed if the parts off the cluster diagonal, which the blocks
    leave out, exceed _drop_bound.
    """
    (rot_a, inv_a, ca), (rot_b, inv_b, cb) = alg.spectral_legs
    k, n = gens.shape[1], alg.dim
    # the classes run by increasing cluster size
    d, e = ca[-1][2], cb[-1][2]
    check_dense(_inner_bytes(k, ca, cb), f"inner blocks of up to {k * d * e} x {d * e}")
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
    parts = {}
    for (alpha, beta), kept in zip(spectra, shared_cut(list(spectra.values()))):
        (sa, a, d), (sb, b, e) = ca[alpha], cb[beta]
        # row (c, i', j') of block i b + j is the unknown of leg a at
        # sa + i d + i', leg b at sb + j e + j' and copy c
        la = (sa + np.arange(a * d)).reshape(a, 1, 1, d, 1)
        lb = (sb + np.arange(b * e)).reshape(1, b, 1, 1, e)
        cols = ((la * n + lb) * k + np.arange(k)[:, None, None]).reshape(a * b, k * d * e)
        u, ranks = bases.pop((alpha, beta)), kept.sum(axis=1)
        values, counts = np.unique(ranks, return_counts=True)
        main = values[np.argmax(counts)]
        # the other ranks are copied out before the most common one moves down
        for r in [*values[values != main], main]:
            sel = np.flatnonzero(ranks == r)
            if r:
                vecs = _leading_columns(u, sel, r) if r == main else u[sel, :, :r]
                parts.setdefault((k * d * e, int(r)), []).append((cols[sel], vecs))
    out, start = [], 0
    for same in parts.values():
        cols, vecs = (a[0] if len(a) == 1 else np.concatenate(a) for a in zip(*same))
        out.append((cols, vecs, start + vecs.shape[2] * np.arange(len(cols))))
        start += vecs.shape[0] * vecs.shape[2]
    return BlockKernel(k * n * n, tuple(out))


def inner_derivation_module(alg, gens: np.ndarray) -> ModuleSubspace:
    """phi_X of the span of commutator derivations, held as an orthonormal
    basis by block in the rotated coordinates of the algebra's
    spectral_legs (_inner_basis), the same for every argument set.
    Scales to algebras where the dense Leibniz solve does not.

    The columns are phi_X([., xi]) for xi in the rotated GNS-orthonormal
    basis of L^2(N) (the inverse rotations of spectral_legs); any basis of
    L^2(N) spans the same module, and with this one each column lies in
    one spectral block, since xi -> [x, xi] commutes with the right action
    of all of N. The module's right operators, which the closure test
    applies, are those of X and its stars. gens is checked as phi_x
    checks it (_argument_set). Raises InexactAlgebra unless alg passes
    algebra.certify_exact, DenseLimitExceeded if the blocks would need
    more than _linalg.DENSE_LIMIT bytes, and NotRightClosed if the columns
    leak out of their blocks by more than the drop bound.
    """
    certify_exact(alg)
    gens = _argument_set(alg, gens)
    return ModuleSubspace(alg, gens.shape[1], _inner_basis(alg, gens),
                          alg.right_ops(alg.with_stars(gens)), np.kron(alg.unit, alg.unit)[:, None],
                          tuple(leg[:2] for leg in alg.spectral_legs))


def restrict_scalars(sub: ModuleSubspace, cp: CrossedProduct) -> ModuleSubspace:
    """View a module over N_big = (A x| G) (x) (A x| G)^op as a module over
    N_0 = A (x) A^op; same basis, right action through the inclusion (one
    operator pair per basis element of A and its star), and the trace
    vectors u_g (x) u_h^op, one per sector, in every coordinate. The
    operators are the crossed product's lifted_right_ops, built once. The
    basis keeps its coordinates, GNS-orthonormal or rotated."""
    if sub.algebra.dim != cp.algebra.dim:
        raise ValueError("module is not over the crossed-product bimodule")
    us = cp.embed_group.T
    # kron(u_g, u_h) in column g |G| + h
    traces = np.einsum("ga,hb->abgh", us, us).reshape(cp.algebra.dim**2, -1)
    return ModuleSubspace(sub.algebra, sub.ncoords, sub.basis, list(cp.lifted_right_ops), traces,
                          sub.legs)


def full_module(alg: FDAlgebra) -> ModuleSubspace:
    """L^2(alg (x) alg^op) itself with no right operators: the whitened
    standard basis, dim A^2 blocks of one unknown with vector 1."""
    nn = alg.dim**2
    ones = np.ones((nn, 1, 1), dtype=complex)
    basis = BlockKernel(nn, ((np.arange(nn)[:, None], ones, np.arange(nn)),))
    return ModuleSubspace(alg, 1, basis, [], np.kron(alg.unit, alg.unit)[:, None])
