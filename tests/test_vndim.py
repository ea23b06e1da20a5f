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
    ad_action,
    as_fraction,
    crossed_product,
    cyclic,
    derivation_space,
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
