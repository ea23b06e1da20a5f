from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from steinlab import (
    Bimodule,
    CrossedContext,
    DerivationSpace,
    ModuleSubspace,
    NotGenerating,
    NotRightClosed,
    SteinlabError,
    ad_action,
    as_fraction,
    crossed_product,
    cyclic,
    derivation_space,
    dual_action,
    generating_set_independence_check,
    group_algebra,
    inner_derivation_module,
    multimatrix,
    multimatrix_generators,
    permutation_action,
    phi_x,
    restrict_scalars,
    vn_dimension,
)
from steinlab._linalg import gram_onb, onb_transform
from steinlab.vndim import CLOSURE_TOL, _right_ops, _with_stars
from test_derivations import rotated


def full_ambient(alg) -> ModuleSubspace:
    bim = Bimodule(alg)
    return ModuleSubspace(
        gram=(alg.gram, alg.gram),
        ncoords=1,
        span=np.eye(bim.dim, dtype=complex),
        right_ops=[],
        trace_vectors=bim.unit.reshape(-1, 1),
    )


def test_full_module_has_dimension_one():
    for alg in (multimatrix([(2, 1.0)]), group_algebra(cyclic(3))):
        res = vn_dimension(full_ambient(alg))
        assert abs(res.value - 1.0) < 1e-10
        assert res.closure_residual < 1e-10


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_group_algebra_derivation_dimension(n):
    alg = group_algebra(cyclic(n))
    val = vn_dimension(phi_x(derivation_space(alg))).value
    assert abs(val - (1.0 - 1.0 / n)) < 1e-9


@settings(max_examples=12, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(1, 2), st.integers(1, 9)),
        min_size=1,
        max_size=3,
    ).filter(lambda raw: sum(n * n for n, _ in raw) <= 10)
)
def test_block_formula_on_random_shapes(raw):
    total = sum(w for _, w in raw)
    blocks = [(n, w / total) for n, w in raw]
    alg = multimatrix(blocks)
    val = vn_dimension(phi_x(derivation_space(alg))).value
    want = 1.0 - sum(a * a / (n * n) for n, a in blocks)
    assert abs(val - want) < 1e-8


def test_inner_module_matches_leibniz_solution():
    for blocks in ([(2, 1.0)], [(2, 0.5), (1, 0.5)]):
        alg = multimatrix(blocks)
        gens = multimatrix_generators(blocks)
        via_inner = vn_dimension(inner_derivation_module(alg, gens)).value
        via_kernel = vn_dimension(phi_x(derivation_space(alg))).value
        assert abs(via_inner - via_kernel) < 1e-9


def test_inner_module_scales_past_the_dense_solver():
    blocks = [(3, 0.4), (3, 0.35), (3, 0.25)]  # dim 27
    alg = multimatrix(blocks)
    val = vn_dimension(inner_derivation_module(alg, multimatrix_generators(blocks))).value
    want = 1.0 - sum(a * a / (n * n) for n, a in blocks)
    assert abs(val - want) < 1e-8


def test_gens_must_generate():
    alg = multimatrix([(2, 1.0)])
    with pytest.raises(NotGenerating):
        phi_x(derivation_space(alg), alg.unit.reshape(-1, 1))


def test_non_invariant_span_is_rejected():
    alg = multimatrix([(2, 1.0)])
    bim = Bimodule(alg)
    # one single vector cannot be a right submodule of L^2(M2 (x) M2^op)
    vec = bim.embed(alg.basis(1), alg.unit).reshape(-1, 1)
    ops = [
        (alg.right_mult(alg.basis(i)), alg.left_mult(alg.basis(j)))
        for i in range(4)
        for j in range(4)
    ]
    sub = ModuleSubspace(
        gram=(alg.gram, alg.gram),
        ncoords=1,
        span=vec,
        right_ops=ops,
        trace_vectors=bim.unit.reshape(-1, 1),
    )
    with pytest.raises(NotRightClosed):
        vn_dimension(sub)


@pytest.mark.parametrize("blocks", [[(2, 1.0)], [(2, 0.5), (1, 0.5)]])
def test_phi_x_of_one_derivation_is_not_right_closed(blocks):
    # the generator right operators alone must reject a non-module span
    space = derivation_space(multimatrix(blocks))
    cut = DerivationSpace(space.bim, space.gens, space.basis[:1])
    with pytest.raises(NotRightClosed):
        vn_dimension(phi_x(cut))


def test_restrict_scalars_multiplies_by_group_order_squared():
    c2 = multimatrix([(1, 0.5), (1, 0.5)])
    act = permutation_action(cyclic(2), c2, [[0, 1], [1, 0]])
    ctx = CrossedContext(crossed_product(c2, act))
    amb = full_ambient(ctx.cp.algebra)
    assert abs(vn_dimension(amb).value - 1.0) < 1e-10
    down = restrict_scalars(amb, ctx)
    assert abs(vn_dimension(down).value - 4.0) < 1e-9


@pytest.mark.parametrize("legs", ["1 (x) 1", "N (x) 1", "1 (x) N"])
def test_restrict_scalars_rejects_non_invariant_spans(legs):
    c2 = multimatrix([(1, 0.5), (1, 0.5)])
    act = permutation_action(cyclic(2), c2, [[0, 1], [1, 0]])
    ctx = CrossedContext(crossed_product(c2, act))
    calg = ctx.cp.algebra
    one = calg.unit.reshape(-1, 1)
    eye = np.eye(calg.dim, dtype=complex)
    # 1 (x) 1 is cyclic, not invariant, for the right action of C^2 (x) C^2;
    # the other two are invariant for one tensor leg only
    span = {"1 (x) 1": np.kron(one, one), "N (x) 1": np.kron(eye, one),
            "1 (x) N": np.kron(one, eye)}[legs]
    sub = ModuleSubspace(
        gram=(calg.gram, calg.gram),
        ncoords=1,
        span=span,
        right_ops=[],
        trace_vectors=ctx.big.unit.reshape(-1, 1),
    )
    with pytest.raises(NotRightClosed):
        vn_dimension(restrict_scalars(sub, ctx))


def test_independence_of_generating_set():
    blocks = [(2, 0.7), (1, 0.3)]
    alg = multimatrix(blocks)
    space = derivation_space(alg)
    rep = generating_set_independence_check(
        space, np.eye(alg.dim, dtype=complex), multimatrix_generators(blocks)
    )
    assert rep.delta < 1e-9


def test_dimension_result_casts_to_float():
    alg = multimatrix([(2, 1.0)])
    res = vn_dimension(phi_x(derivation_space(alg)))
    assert abs(float(res) - res.value) == 0.0
    assert res.rank > 0


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 400), st.integers(1, 40))
def test_as_fraction_round_trip(num, den):
    frac = Fraction(num, den)
    got = as_fraction(float(frac), max_den=40)
    assert got == frac


def test_as_fraction_rejects_far_values():
    assert as_fraction(np.sqrt(2.0), max_den=50) is None
    assert as_fraction(0.5 + 1e-3, max_den=10) is None


# -- the spectral block split against one dense projector ------------------------

def _apply(op: tuple, vecs: np.ndarray, shape: tuple) -> np.ndarray:
    """Apply a factor pair (a, b) to vectors stacked as shape =
    (ncoords, leg a, leg b); None stands for the identity leg."""
    a, b = op
    t = vecs.reshape(*shape, -1)
    if a is not None:
        t = np.einsum("ij,cjkr->cikr", a, t)
    if b is not None:
        t = np.einsum("ij,ckjr->ckir", b, t)
    return t.reshape(vecs.shape)


def dense_vn_dimension(sub: ModuleSubspace):
    """Reference: orthonormalize the whole span by Gram-Schmidt and test
    every right operator against the dense projector onto it."""
    (ta, tai), (tb, tbi) = onb_transform(sub.gram[0]), onb_transform(sub.gram[1])
    shape = (sub.ncoords, ta.shape[0], tb.shape[0])
    q, _ = gram_onb(_apply((ta, tb), sub.span, shape))
    worst = 0.0
    for a, b in sub.right_ops:
        op = (None if a is None else ta @ a @ tai, None if b is None else tb @ b @ tbi)
        img = _apply(op, q, shape)
        rem = img - q @ (q.conj().T @ img)
        worst = max(worst, np.linalg.norm(rem) / max(1.0, np.linalg.norm(img)))
    if worst > CLOSURE_TOL:
        raise NotRightClosed(f"commutant residual {worst:.3e}")
    overlaps = q.conj().T @ _apply((ta, tb), sub.trace_vectors, shape)
    return float(np.sum(np.abs(overlaps) ** 2)), q.shape[1]


def _inner(blocks):
    return inner_derivation_module(multimatrix(blocks), multimatrix_generators(blocks))


def _crossed(name):
    if name == "C2 x| Z/2":
        c2 = multimatrix([(1, 0.5), (1, 0.5)])
        act = permutation_action(cyclic(2), c2, [[0, 1], [1, 0]])
        return CrossedContext(crossed_product(c2, act))
    act = dual_action(3)
    return CrossedContext(crossed_product(act.algebra, act))


def _with_two_leg_ops(sub: ModuleSubspace) -> ModuleSubspace:
    # products of one leg-a and one leg-b operator are right operators too;
    # they are closure-tested but do not shape the blocks
    legs_a = [a for a, b in sub.right_ops if b is None]
    legs_b = [b for a, b in sub.right_ops if a is None]
    extra = [(a, b) for a in legs_a[:2] for b in legs_b[:2]]
    return ModuleSubspace(sub.gram, sub.ncoords, sub.span, sub.right_ops + extra,
                          sub.trace_vectors, sub.label)


def _sum_of_blocks(leg: int):
    # right operators of one leg only, R(e12) and R(e21) (or L(e12), L(e21)
    # on leg b): every random self-adjoint combination of them is a multiple
    # of R(sigma_x), so E = {x : x sigma_x = x} (or sigma_x x = x) is a sum of
    # clusters and the span E (x) N (or N (x) E) passes the rank certificate;
    # R(e12) does not preserve it, which only the closure test can see
    alg = multimatrix([(2, 1.0)])
    e12, e21 = alg.basis(1), alg.basis(2)
    eye = np.eye(4, dtype=complex)
    if leg == 0:
        ops = [(alg.right_mult(e12), None), (alg.right_mult(e21), None)]
        span = np.kron(np.array([[1, 0], [1, 0], [0, 1], [0, 1]], dtype=complex), eye)
    else:
        ops = [(None, alg.left_mult(e12)), (None, alg.left_mult(e21))]
        span = np.kron(eye, np.array([[1, 0], [0, 1], [1, 0], [0, 1]], dtype=complex))
    unit = Bimodule(alg).unit.reshape(-1, 1)
    return ModuleSubspace((alg.gram, alg.gram), 1, span, ops, unit)


MODULES = {
    "inner M2": lambda: _inner([(2, 1.0)]),
    "inner M3": lambda: _inner([(3, 1.0)]),
    "inner M4": lambda: _inner([(4, 1.0)]),
    "inner M4+M2+C": lambda: _inner([(4, 0.5), (2, 0.3), (1, 0.2)]),
    "inner M2+C, two-leg ops": lambda: _with_two_leg_ops(_inner([(2, 0.6), (1, 0.4)])),
    "phi_x M2+C rotated": lambda: phi_x(derivation_space(
        rotated(multimatrix([(2, 0.6), (1, 0.4)]), np.random.default_rng(4)))),
    "full C2 x| Z/2 over C2": lambda: restrict_scalars(
        full_ambient(_crossed("C2 x| Z/2").cp.algebra), _crossed("C2 x| Z/2")),
    "phi_x C2 x| Z/2 over C2": lambda: restrict_scalars(
        phi_x(derivation_space(_crossed("C2 x| Z/2").cp.algebra)), _crossed("C2 x| Z/2")),
    "phi_x C[Z/3] x| Z/3": lambda: phi_x(derivation_space(_crossed("dual").cp.algebra)),
    "phi_x C[Z/3] x| Z/3 over C[Z/3]": lambda: restrict_scalars(
        phi_x(derivation_space(_crossed("dual").cp.algebra)), _crossed("dual")),
    # sums of block parts that are not right submodules
    "E (x) N, leg-a operators": lambda: _sum_of_blocks(0),
    "N (x) E, leg-b operators": lambda: _sum_of_blocks(1),
}


def _outcome(fn, sub):
    try:
        return fn(sub)
    except SteinlabError as exc:
        return type(exc)


@pytest.mark.parametrize("name", list(MODULES))
def test_block_split_matches_dense_projector(name):
    sub = MODULES[name]()
    got = _outcome(vn_dimension, sub)
    want = _outcome(dense_vn_dimension, sub)
    if isinstance(want, type):
        assert got is want
    else:
        assert abs(got.value - want[0]) < 1e-12
        assert got.rank == want[1]


@pytest.mark.parametrize("blocks", [[(2, 1.0)], [(1, 0.5), (1, 0.5)]], ids=["M2", "C2"])
def test_rank_certificate_rejects_a_cyclic_vector(blocks):
    # the block parts of 1 (x) 1 span more than 1 (x) 1; for C2 they span
    # all of L^2(C2 (x) C2^op), which every operator leaves invariant, so
    # only the rank certificate can reject this span
    alg = multimatrix(blocks)
    bim = Bimodule(alg)
    ops = _right_ops(alg, _with_stars(alg, multimatrix_generators(blocks)))
    sub = ModuleSubspace((alg.gram, alg.gram), 1, bim.unit.reshape(-1, 1), ops,
                         bim.unit.reshape(-1, 1))
    with pytest.raises(NotRightClosed, match=r"span rank 1 differs from the rank \d+"):
        vn_dimension(sub)


def test_vn_dimension_is_deterministic():
    sub = _inner([(4, 0.5), (2, 0.3), (1, 0.2)])
    first, second = vn_dimension(sub), vn_dimension(sub)
    assert first.value == second.value
    assert first.rank == second.rank
    assert first.closure_residual == second.closure_residual
