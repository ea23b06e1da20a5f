"""von Neumann dimension of right submodules of L^2(N)^k.

A ModuleSubspace is a span of vectors in a direct sum of k copies of
L^2(N), N = A (x) A^op, together with the right action of a coefficient
algebra N_0 (one block operator per element, acting diagonally across the
copies) and the trace vectors Omega_b. The dimension is
sum_b <P Omega_b, Omega_b> for the orthogonal projection P onto the
span, valid once P commutes with the right action.

Every block-level matrix is a kron factor pair (a, b) standing for
kron(a, b), one factor per tensor leg: the GNS Gram of one copy of L^2(N)
is kron(wa, wb), and the right operators are R(x (x) 1) = (right_mult(x),
None) and R(1 (x) y^op) = (None, left_mult(y)), None marking the identity
leg; a pair with both factors set is a two-leg operator.

The right operators need only come from a generating set of N_0 closed
under *. By von Neumann's bicommutant theorem the commutant of a
self-adjoint set of operators is the commutant of the *-algebra it
generates, so P commutes with all of R(N_0) exactly when it commutes with
the generators' operators.

vn_dimension never forms P densely. A projection commuting with the right
action commutes with every spectral projection of a self-adjoint element
of it (Lueck, L^2-Invariants, ch. 1). So each leg is rotated into the
eigenbasis of a fixed-seed random self-adjoint combination
sum_j t_j (a_j + a_j^*) of its one-leg operators, in GNS-orthonormal
coordinates, and L^2(N)^k splits into blocks C^k (x) E_a (x) E_b of
eigenvalue clusters E_a, E_b. Eigenvalues closer than CLUSTER_GAP (relative)
share a cluster: a union of eigenspaces is still a spectral projection, so
merging only coarsens the blocks, while a split degenerate eigenspace would
not be one.

The span W is orthonormalized block by block (batched SVDs, one rank cut
on the union of the block spectra), giving an orthonormal basis Q' of
W' = sum_ab P_ab W, which contains W. A module has W = W'; this is
certified by the rank of the coefficients C = Q'^H span, which must be
dim W' (gap-guarded, as every rank here), or NotRightClosed is raised.
Then every right operator, two-leg ones included, is tested against the
block-diagonal projector Q' Q'^H at CLOSURE_TOL, and the dimension is
sum_ab |Q'_ab^H Omega_ab|^2. The rotation is unitary, so for a module
this is the value of the dense projection.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

# gram_onb is no longer called here; the name stays bound because
# benchmark/tracing.py hooks steinlab.vndim.gram_onb
from ._linalg import batched_svd, gram_onb, onb_transform, rank_split  # noqa: F401
from .derivations import Bimodule, CrossedContext, DerivationSpace, commutator_span
from .errors import NotGenerating, NotRightClosed

# largest relative residual of a right operator's image off the span that
# still counts as right-closed; fixed, independent of any report tolerance
CLOSURE_TOL = 1e-8
# eigenvalues of a leg's random self-adjoint right operator closer than this
# fraction of its spectral radius share a cluster; merging only coarsens
# the blocks, and the gap keeps each cluster's eigenvectors accurate to
# about 1e-16 / CLUSTER_GAP, far below the rank cuts
CLUSTER_GAP = 1e-3
_CLUSTER_SEED = 0


@dataclass(eq=False)
class ModuleSubspace:
    """Span of vectors in L^2(N)^ncoords with a right action.

    right_ops is closed under adjoints as a span: the GNS adjoint of each
    operator lies in the span of the list (R(m)* = R(m*) for a trace, so a
    *-closed generating set gives such a list).
    """

    gram: tuple  # (wa, wb): GNS Gram of one copy of L^2(N) is kron(wa, wb)
    ncoords: int
    span: np.ndarray  # (ncoords * block_dim, r), raw coordinates
    right_ops: list  # (a, b) kron factor pairs, None for an identity leg
    trace_vectors: np.ndarray  # (ncoords * block_dim, t)
    label: str = ""

    @property
    def block_dim(self) -> int:
        return self.gram[0].shape[0] * self.gram[1].shape[0]


@dataclass
class DimensionResult:
    value: float
    rank: int
    closure_residual: float

    def __float__(self) -> float:
        return self.value


def _leg_split(gram: np.ndarray, ops: list, rng: np.random.Generator) -> tuple:
    """(rot, inv, classes) for one tensor leg: rot maps raw coordinates
    (Gram matrix gram) to orthonormal ones in the eigenbasis of a random
    self-adjoint combination of the leg's operators, inv = rot^-1, and
    classes lists (start, count, size) per cluster size, the clusters of
    one size consecutive. Eigenvalues closer than CLUSTER_GAP * (spectral
    radius) share a cluster."""
    t, ti = onb_transform(gram)
    n = gram.shape[0]
    if not ops:
        return t, ti, [(0, 1, n)]
    comb = rng.standard_normal(len(ops)) @ np.array(ops).reshape(len(ops), -1)
    m = t @ comb.reshape(n, n) @ ti
    lam, vec = np.linalg.eigh(m + m.conj().T)
    cuts = np.flatnonzero(lam[1:] - lam[:-1] > CLUSTER_GAP * np.abs(lam).max()) + 1
    bounds = [0, *cuts.tolist(), n]
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


def _class_blocks(vecs: np.ndarray, ncoords: int, legs: list) -> dict:
    """Rotate stacked vectors and split them into spectral blocks, grouped
    by class pair (alpha, beta): each value has shape
    (count_a * count_b, ncoords * size_a * size_b, columns), block rows in
    (coordinate, leg a, leg b) order."""
    (ra, _, ca), (rb, _, cb) = legs
    t = np.matmul(ra, vecs.reshape(ncoords, ra.shape[1], -1))
    t = np.matmul(rb, t.reshape(ncoords, ra.shape[0], rb.shape[1], -1))
    out = {}
    for alpha, (sa, a, d) in enumerate(ca):
        for beta, (sb, b, e) in enumerate(cb):
            blk = t[:, sa : sa + a * d, sb : sb + b * e].reshape(ncoords, a, d, b, e, -1)
            out[alpha, beta] = blk.transpose(1, 3, 0, 2, 4, 5).reshape(
                a * b, ncoords * d * e, -1
            )
    return out


def _apply_leg(pieces: list, op: np.ndarray | None, leg: int, classes: list) -> list:
    """Apply a rotated operator on one leg to vectors grouped by class pair.

    Each piece is ((alpha, beta), t) with t of shape (count_a, count_b,
    ncoords, size_a, size_b, columns), one entry per cluster pair. The
    image of a piece splits over the target classes of that leg; the
    source cluster is folded into the columns.
    """
    if op is None:
        return pieces
    out = []
    for key, t in pieces:
        if leg:
            t = t.transpose(1, 0, 2, 4, 3, 5)
        s, a, d = classes[key[leg]]
        _, b, k, _, e, cols = t.shape
        t = t.transpose(0, 3, 1, 2, 4, 5).reshape(a, d, b * k * e * cols)
        for c2, (s2, a2, d2) in enumerate(classes):
            m = op[s2 : s2 + a2 * d2, s : s + a * d].reshape(a2 * d2, a, d)
            img = np.matmul(m.transpose(1, 0, 2), t).reshape(a, a2, d2, b, k, e, cols)
            img = img.transpose(1, 3, 4, 2, 5, 0, 6).reshape(a2, b, k, d2, e, a * cols)
            if leg:
                out.append(((key[0], c2), img.transpose(1, 0, 2, 4, 3, 5)))
            else:
                out.append(((c2, key[1]), img))
    return out


def _closure_residual(op: tuple, basis: dict, legs: list, ncoords: int) -> float:
    """Relative Frobenius norm of (1 - P) T Q for the right operator T and
    the block-diagonal basis Q of the span, P = Q Q^H."""
    mats = [m if m is None else rot @ m @ inv for (rot, inv, _), m in zip(legs, op)]
    rem2 = img2 = 0.0
    for (alpha, beta), q in basis.items():
        (_, a, d), (_, b, e) = legs[0][2][alpha], legs[1][2][beta]
        pieces = [((alpha, beta), q.reshape(a, b, ncoords, d, e, -1))]
        for leg in (0, 1):
            pieces = _apply_leg(pieces, mats[leg], leg, legs[leg][2])
        for key, img in pieces:
            qt = basis[key]
            img = img.reshape(qt.shape[0], qt.shape[1], -1)
            rem = img - qt @ (qt.conj().transpose(0, 2, 1) @ img)
            rem2 += np.vdot(rem, rem).real
            img2 += np.vdot(img, img).real
    return float(np.sqrt(rem2) / max(1.0, np.sqrt(img2)))


def vn_dimension(sub: ModuleSubspace) -> DimensionResult:
    """Trace of the span projection against the trace vectors.

    Splits the span into spectral blocks of the right action, certifies
    that the span is the sum of its block parts, and tests every right
    operator against the block-diagonal projector (see the module
    docstring). Raises NotRightClosed if the certificate fails or some
    operator's image leaves the span by more than CLOSURE_TOL (relative).
    Since right_ops is closed under adjoints, invariance under each
    operator already gives invariance under its adjoint.
    """
    k = sub.ncoords
    rng = np.random.default_rng(_CLUSTER_SEED)
    legs = [
        _leg_split(w, [op[leg] for op in sub.right_ops if op[1 - leg] is None], rng)
        for leg, w in enumerate(sub.gram)
    ]

    blocks = _class_blocks(sub.span, k, legs)
    keys = list(blocks)
    basis, coef = {}, []
    # popped, so that the blocks are freed once their SVDs are taken
    for key, (u, s, vh, kept) in zip(keys, batched_svd([blocks.pop(c) for c in keys])):
        width = u.shape[2]
        rho = int(kept.sum(axis=1).max(initial=0))
        basis[key] = u[:, :, :rho] * kept[:, None, :rho]
        kept = kept[:, :width]
        coef.append(s[:, :width][kept][:, None] * vh[kept])
    # the span W lies in W' = sum of its block parts; W = W' exactly when
    # the coefficients of W in the basis of W' have full row rank
    coef = np.concatenate(coef)
    rank = coef.shape[0]
    span_rank = rank_split(np.linalg.svd(coef, compute_uv=False)) if coef.size else 0
    if span_rank != rank:
        raise NotRightClosed(
            f"span rank {span_rank} differs from the rank {rank} of its "
            "spectral blocks: the span is not the sum of its block parts"
        )

    worst = max((_closure_residual(op, basis, legs, k) for op in sub.right_ops), default=0.0)
    if worst > CLOSURE_TOL:
        raise NotRightClosed(f"commutant residual {worst:.3e} above {CLOSURE_TOL}")

    omegas = _class_blocks(sub.trace_vectors, k, legs)
    value = 0.0
    for key, q in basis.items():
        overlaps = q.conj().transpose(0, 2, 1) @ omegas[key]
        value += float(np.sum(np.abs(overlaps) ** 2))
    return DimensionResult(value, rank, worst)


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
    for each x, as kron factor pairs."""
    ops = []
    for x in xs:
        ops.append((alg.right_mult(x), None))
        ops.append((None, alg.left_mult(x)))
    return ops


def _block_traces(bim: Bimodule, k: int) -> np.ndarray:
    omegas = np.zeros((k * bim.dim, k), dtype=complex)
    for c in range(k):
        omegas[c * bim.dim : (c + 1) * bim.dim, c] = bim.unit
    return omegas


def phi_x(space: DerivationSpace, gens: np.ndarray | None = None) -> ModuleSubspace:
    """Image of a derivation space under d -> (d(x))_{x in X}.

    X (columns of gens, the basis of A by default) must generate the
    algebra, so that the map is injective and the dimension does not depend
    on the choice. X and its stars also supply the right operators.
    """
    from .constructions import generates

    bim = space.bim
    alg = bim.algebra
    gens = np.eye(alg.dim, dtype=complex) if gens is None else np.asarray(gens, dtype=complex)
    if not generates(alg, list(gens.T)):
        raise NotGenerating("argument set does not generate the algebra")
    # block per argument x, derivations along columns
    span = np.vstack(
        [np.einsum("rpj,j->pr", space.basis, x) for x in gens.T]
    )
    return ModuleSubspace(
        gram=(alg.gram, alg.gram),
        ncoords=gens.shape[1],
        span=span,
        right_ops=_right_ops(alg, _with_stars(alg, gens)),
        trace_vectors=_block_traces(bim, gens.shape[1]),
        label=f"phi_X({alg.label})",
    )


def inner_derivation_module(alg, gens: np.ndarray) -> ModuleSubspace:
    """phi_X of the span of commutator derivations, built directly from
    kron-structured operators. Scales to algebras where the dense Leibniz
    solve does not."""
    from .constructions import generates

    bim = Bimodule(alg)
    gens = np.asarray(gens, dtype=complex)
    if not generates(alg, list(gens.T)):
        raise NotGenerating("argument set does not generate the algebra")
    k = gens.shape[1]
    # columns = phi_X([., xi_m]) for basis xi_m
    span = commutator_span(bim, gens, np.eye(bim.dim)).reshape(k * bim.dim, bim.dim)
    return ModuleSubspace((alg.gram, alg.gram), k, span,
                          _right_ops(alg, _with_stars(alg, gens)),
                          _block_traces(bim, k), label=f"inner({alg.label})")


def restrict_scalars(sub: ModuleSubspace, ctx: CrossedContext) -> ModuleSubspace:
    """View a module over N_big = (A x| G) (x) (A x| G)^op as a module over
    N_0 = A (x) A^op; same span, right action through the inclusion (one
    operator pair per basis element of A and its star), and one trace
    vector u_g (x) u_h^op per original coordinate and sector."""
    cp = ctx.cp
    big = ctx.big
    if sub.block_dim != big.dim:
        raise ValueError("module is not over the crossed-product bimodule")
    base = cp.base
    basis = np.eye(base.dim, dtype=complex)
    ops = _right_ops(cp.algebra, [cp.lift(x) for x in _with_stars(base, basis)])
    k = ctx.group.order
    traces = []
    for c in range(sub.ncoords):
        for g in range(k):
            for h in range(k):
                col = np.zeros(sub.ncoords * big.dim, dtype=complex)
                col[c * big.dim : (c + 1) * big.dim] = big.embed(cp.u(g), cp.u(h))
                traces.append(col)
    return ModuleSubspace(
        sub.gram,
        sub.ncoords,
        sub.span,
        ops,
        np.column_stack(traces),
        label=sub.label + " over base",
    )


@dataclass
class IndependenceReport:
    dim_a: float
    dim_b: float

    @property
    def delta(self) -> float:
        return abs(self.dim_a - self.dim_b)


def generating_set_independence_check(
    space: DerivationSpace, gens_a: np.ndarray, gens_b: np.ndarray
) -> IndependenceReport:
    """Dimension of the same derivation space against two generating sets."""
    da = vn_dimension(phi_x(space, gens_a))
    db = vn_dimension(phi_x(space, gens_b))
    return IndependenceReport(da.value, db.value)
