"""von Neumann dimension of right submodules of L^2(N)^k.

A ModuleSubspace is a span of vectors in a direct sum of k copies of
L^2(N), N = A (x) A^op, together with the right action of a coefficient
algebra N_0 (one block operator per element, acting diagonally across the
copies) and the trace vectors Omega_b. The dimension is
sum_b <P Omega_b, Omega_b> for the orthogonal projection P onto the
span, valid once P commutes with the right action.

Every block-level matrix is a kron factor pair (a, b) standing for
kron(a, b), one factor per tensor leg: the GNS Gram of one copy of L^2(N)
is kron(wa, wb), and each right operator is R(x (x) 1) = (right_mult(x), 1)
or R(1 (x) y^op) = (1, left_mult(y)), never formed as a dense product.

The right operators need only come from a generating set of N_0 closed
under *. By von Neumann's bicommutant theorem the commutant of a
self-adjoint set of operators is the commutant of the *-algebra it
generates, so P commutes with all of R(N_0) exactly when it commutes with
the generators' operators.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ._linalg import frob, gram_onb, onb_transform
from .derivations import Bimodule, CrossedContext, DerivationSpace
from .errors import NotGenerating, NotRightClosed

# largest relative residual of a right operator's image off the span that
# still counts as right-closed; fixed, independent of any report tolerance
CLOSURE_TOL = 1e-8


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
    right_ops: list  # (a, b) kron factor pairs
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


def _blockwise(op: tuple, vecs: np.ndarray, ncoords: int) -> np.ndarray:
    """Apply a kron-factored block operator (a, b) to stacked vectors."""
    a, b = op
    r = vecs.shape[1]
    da, db = a.shape[0], b.shape[0]
    t = vecs.reshape(ncoords, da, db * r)
    t = np.matmul(a, t)
    t = t.reshape(ncoords * da, db, r)
    t = np.matmul(b, t)
    return t.reshape(ncoords * da * db, r)


def vn_dimension(sub: ModuleSubspace) -> DimensionResult:
    """Trace of the span projection against the trace vectors.

    Raises NotRightClosed unless the projection commutes with every right
    operator, checked through range invariance up to CLOSURE_TOL. Since
    right_ops is closed under adjoints, invariance under each operator
    already gives invariance under its adjoint.
    """
    ta, tai = onb_transform(sub.gram[0])
    tb, tbi = onb_transform(sub.gram[1])
    span_on = _blockwise((ta, tb), sub.span, sub.ncoords)
    q, _ = gram_onb(span_on)
    rank = q.shape[1]
    qh = q.conj().T

    worst = 0.0
    for a, b in sub.right_ops:
        img = _blockwise((ta @ a @ tai, tb @ b @ tbi), q, sub.ncoords)
        rem = img - q @ (qh @ img)
        worst = max(worst, frob(rem) / max(1.0, frob(img)))
    if worst > CLOSURE_TOL:
        raise NotRightClosed(f"commutant residual {worst:.3e} above {CLOSURE_TOL}")

    omega_on = _blockwise((ta, tb), sub.trace_vectors, sub.ncoords)
    overlaps = qh @ omega_on
    value = float(np.sum(np.abs(overlaps) ** 2))
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
    eye = np.eye(alg.dim, dtype=complex)
    ops = []
    for x in xs:
        ops.append((alg.right_mult(x), eye))
        ops.append((eye, alg.left_mult(x)))
    return ops


def _block_traces(bim: Bimodule, k: int) -> np.ndarray:
    omegas = np.zeros((k * bim.dim, k), dtype=complex)
    for c in range(k):
        omegas[c * bim.dim : (c + 1) * bim.dim, c] = bim.unit
    return omegas


def phi_x(space: DerivationSpace, gens: np.ndarray | None = None) -> ModuleSubspace:
    """Image of a derivation space under d -> (d(x))_{x in X}.

    X must generate the algebra, so that the map is injective and the
    dimension does not depend on the choice. X and its stars also supply
    the right operators.
    """
    from .constructions import generates

    bim = space.bim
    alg = bim.algebra
    gens = space.gens if gens is None else np.asarray(gens, dtype=complex)
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
    blocks = []
    for j in range(k):
        x = gens[:, j]
        blocks.append(bim.act_left(x) - bim.act_right(x))
    span = np.vstack(blocks)  # columns = phi_X([., xi_m]) for basis xi_m
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
