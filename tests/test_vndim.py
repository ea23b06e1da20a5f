import itertools
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from steinlab import (
    DenseLimitExceeded,
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
    dihedral_4,
    dual_action,
    full_module,
    group_algebra,
    inner_derivation_module,
    multimatrix,
    multimatrix_generators,
    permutation_action,
    phi_x,
    relative_derivations,
    restrict_scalars,
    symmetric_3,
    vn_dimension,
)
import steinlab.vndim as vndim
from steinlab import _linalg, reports
from steinlab._linalg import BlockKernel, gram_onb, span_basis
from steinlab.vndim import CLOSURE_TOL
from test_derivations import in_basis, random_unitary, rotated
import dense_reference


def test_full_module_has_dimension_one():
    for alg in (multimatrix([(2, 1.0)]), group_algebra(cyclic(3))):
        res = vn_dimension(full_module(alg))
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


def test_inner_gens_must_generate():
    alg = multimatrix([(2, 1.0)])
    with pytest.raises(NotGenerating):
        inner_derivation_module(alg, alg.unit.reshape(-1, 1))


def _with_entry(gens: np.ndarray, x: complex) -> np.ndarray:
    gens = gens.copy()
    gens[1, 0] = x
    return gens


ARGUMENT_SET_BUILDERS = {
    "phi_x": lambda alg, gens: phi_x(derivation_space(alg), gens),
    "inner_derivation_module": inner_derivation_module,
}


MALFORMED_GENS = {
    "1-D": lambda gens: gens[:, 0],
    "rows other than dim A": lambda gens: np.ones((5, 3)),
    "NaN entry": lambda gens: _with_entry(gens, np.nan),
    "inf entry": lambda gens: _with_entry(gens, np.inf),
}


# no RuntimeWarning either: the argument set is refused before any arithmetic
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", list(MALFORMED_GENS))
@pytest.mark.parametrize("build", list(ARGUMENT_SET_BUILDERS))
def test_malformed_gens_are_refused(build, case):
    alg = multimatrix([(2, 1.0)])
    gens = MALFORMED_GENS[case](multimatrix_generators([(2, 1.0)]))
    with pytest.raises(ValueError, match=r"gens must be a finite \(4, k\) array"):
        ARGUMENT_SET_BUILDERS[build](alg, gens)


def test_non_invariant_span_is_rejected():
    alg = multimatrix([(2, 1.0)])
    # one single vector cannot be a right submodule of L^2(M2 (x) M2^op)
    vec = np.kron(alg.basis(1), alg.unit).reshape(-1, 1)
    sub = dense_reference.module_from_span(
        algebra=alg,
        ncoords=1,
        span=vec,
        right_ops=alg.right_ops(list(np.eye(4))),
        trace_vectors=np.kron(alg.unit, alg.unit).reshape(-1, 1),
    )
    with pytest.raises(NotRightClosed):
        vn_dimension(sub)


@pytest.mark.parametrize("op", ["(m, None)", "(None, m)", "(a, b)", "(2, m)", "wrong shape"])
def test_module_subspace_takes_only_one_leg_operators(op):
    alg = multimatrix([(2, 1.0)])
    m = alg.right_mult(alg.basis(1))
    bad = {"(m, None)": (m, None), "(None, m)": (None, m), "(a, b)": (m, m), "(2, m)": (2, m),
           "wrong shape": (0, np.eye(3, dtype=complex))}[op]
    unit = np.kron(alg.unit, alg.unit).reshape(-1, 1)
    assert dense_reference.module_from_span(alg, 1, unit, [(0, m), (1, m)], unit).right_ops
    with pytest.raises(ValueError, match="a right operator is"):
        dense_reference.module_from_span(alg, 1, unit, [(0, m), bad], unit)


@pytest.mark.parametrize("blocks", [[(2, 1.0)], [(2, 0.5), (1, 0.5)]])
def test_phi_x_of_one_derivation_is_not_right_closed(blocks):
    # the generator right operators alone must reject a non-module span
    space = derivation_space(multimatrix(blocks))
    cut = DerivationSpace(space.algebra, span_basis(space.kernel.vectors().T[:, :1]))
    with pytest.raises(NotRightClosed):
        vn_dimension(phi_x(cut))


def test_restrict_scalars_multiplies_by_group_order_squared():
    c2 = multimatrix([(1, 0.5), (1, 0.5)])
    act = permutation_action(cyclic(2), c2, [[0, 1], [1, 0]])
    cp = crossed_product(c2, act)
    amb = full_module(cp.algebra)
    assert abs(vn_dimension(amb).value - 1.0) < 1e-10
    down = restrict_scalars(amb, cp)
    assert abs(vn_dimension(down).value - 4.0) < 1e-9


def test_restrict_scalars_trace_vectors_are_the_sector_units():
    # kron(u_g, u_h), one column per pair in g-major order, on every corpus
    # crossed product
    for spec in reports.corpus_specs():
        cp = crossed_product(spec.algebra, spec.action)
        us = cp.embed_group.T
        want = np.column_stack([np.kron(ug, uh) for ug in us for uh in us])
        assert np.array_equal(restrict_scalars(full_module(cp.algebra), cp).trace_vectors, want)


def test_restrict_scalars_of_an_inner_module_reads_the_kernel_route():
    # the restricted module keeps the inner module's rotated coordinates and
    # tests the base's right operators in them, on every corpus crossed
    # product at X the basis
    for spec in reports.corpus_specs():
        cp = crossed_product(spec.algebra, spec.action)
        eye = np.eye(cp.algebra.dim, dtype=complex)
        inner = vn_dimension(restrict_scalars(inner_derivation_module(cp.algebra, eye), cp))
        kernel = vn_dimension(restrict_scalars(phi_x(derivation_space(cp.algebra)), cp))
        assert (inner.route, kernel.route) == ("spectral", "kernel")
        assert inner.rank == kernel.rank
        assert abs(inner.value - kernel.value) < 1e-12, spec.label


def test_restrict_scalars_reads_the_operators_the_crossed_product_holds():
    # the lifted right operators are built once per crossed product, not on
    # every call, and no caller can write to them
    cp = _crossed("C2 x| Z/2")
    first, again = (restrict_scalars(full_module(cp.algebra), cp) for _ in range(2))
    assert all(a is b for (_, a), (_, b) in zip(first.right_ops, again.right_ops))
    assert not any(mat.flags.writeable for _, mat in first.right_ops)


def test_restrict_scalars_refuses_a_module_over_the_base():
    cp = _crossed("C2 x| Z/2")
    with pytest.raises(ValueError, match="not over the crossed-product bimodule"):
        restrict_scalars(full_module(cp.base), cp)


@pytest.mark.parametrize("legs", ["1 (x) 1", "N (x) 1", "1 (x) N"])
def test_restrict_scalars_rejects_non_invariant_spans(legs):
    c2 = multimatrix([(1, 0.5), (1, 0.5)])
    act = permutation_action(cyclic(2), c2, [[0, 1], [1, 0]])
    cp = crossed_product(c2, act)
    calg = cp.algebra
    one = calg.unit.reshape(-1, 1)
    eye = np.eye(calg.dim, dtype=complex)
    # 1 (x) 1 is cyclic, not invariant, for the right action of C^2 (x) C^2;
    # the other two are invariant for one tensor leg only
    span = {"1 (x) 1": np.kron(one, one), "N (x) 1": np.kron(eye, one),
            "1 (x) N": np.kron(one, eye)}[legs]
    sub = dense_reference.module_from_span(
        algebra=calg,
        ncoords=1,
        span=span,
        right_ops=[],
        trace_vectors=np.kron(calg.unit, calg.unit).reshape(-1, 1),
    )
    with pytest.raises(NotRightClosed):
        vn_dimension(restrict_scalars(sub, cp))


def test_independence_of_generating_set():
    blocks = [(2, 0.7), (1, 0.3)]
    alg = multimatrix(blocks)
    space = derivation_space(alg)
    dim_a = vn_dimension(phi_x(space, np.eye(alg.dim, dtype=complex))).value
    dim_b = vn_dimension(phi_x(space, multimatrix_generators(blocks))).value
    assert abs(dim_a - dim_b) < 1e-9


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


def dense_vn_dimension(sub: ModuleSubspace, span: np.ndarray | None = None):
    """Reference: orthonormalize the whole span by one SVD and test
    every right operator against the dense projector onto it. The span is
    given in raw coordinates, as module_from_span takes it (an inner
    module's by dense_reference.inner_span), or by default read from the
    module's basis (dense_reference.module_span)."""
    alg, k, omega = sub.algebra, sub.ncoords, sub.trace_vectors
    if span is None:
        span = dense_reference.module_span(sub)
    t, ti = alg.onb_factor, alg.onb_inverse
    shape = (k, alg.dim, alg.dim)
    q = gram_onb(_apply((t, t), span, shape))
    worst = 0.0
    for leg, m in sub.right_ops:
        op = (t @ m @ ti, None) if leg == 0 else (None, t @ m @ ti)
        img = _apply(op, q, shape)
        rem = img - q @ (q.conj().T @ img)
        worst = max(worst, np.linalg.norm(rem) / max(1.0, np.linalg.norm(img)))
    if worst > CLOSURE_TOL:
        raise NotRightClosed(f"commutant residual {worst:.3e}")
    # the trace vectors are omega in every coordinate, I_k (x) omega
    overlaps = q.conj().T @ _apply((t, t), np.kron(np.eye(k), omega), shape)
    return float(np.sum(np.abs(overlaps) ** 2)), q.shape[1]


def _inner(blocks):
    return inner_derivation_module(multimatrix(blocks), multimatrix_generators(blocks))


def _raw_inner(blocks):
    return dense_reference.inner_module(multimatrix(blocks), multimatrix_generators(blocks))


def _crossed(name):
    if name == "C2 x| Z/2":
        c2 = multimatrix([(1, 0.5), (1, 0.5)])
        act = permutation_action(cyclic(2), c2, [[0, 1], [1, 0]])
        return crossed_product(c2, act)
    act = dual_action(3)
    return crossed_product(act.algebra, act)


def _sum_of_blocks(leg: int):
    # right operators of one leg only, R(e12) and R(e21) (or L(e12), L(e21)
    # on leg b): every random self-adjoint combination of them is a multiple
    # of R(sigma_x), so E = {x : x sigma_x = x} (or sigma_x x = x) is a sum of
    # clusters and the span E (x) N (or N (x) E) a sum of spectral blocks;
    # R(e12) does not preserve it, which the closure test sees
    alg = multimatrix([(2, 1.0)])
    e12, e21 = alg.basis(1), alg.basis(2)
    eye = np.eye(4, dtype=complex)
    if leg == 0:
        ops = [(0, alg.right_mult(e12)), (0, alg.right_mult(e21))]
        span = np.kron(np.array([[1, 0], [1, 0], [0, 1], [0, 1]], dtype=complex), eye)
    else:
        ops = [(1, alg.left_mult(e12)), (1, alg.left_mult(e21))]
        span = np.kron(eye, np.array([[1, 0], [0, 1], [1, 0], [0, 1]], dtype=complex))
    unit = np.kron(alg.unit, alg.unit).reshape(-1, 1)
    return dense_reference.module_from_span(alg, 1, span, ops, unit)


def _vanishing(name):
    """phi_X of the derivations of A x| G vanishing on C[G], X the basis."""
    cp = _crossed(name)
    return phi_x(relative_derivations(derivation_space(cp.algebra), cp.embed_group))


MODULES = {
    "inner M2": lambda: _inner([(2, 1.0)]),
    "inner M3": lambda: _inner([(3, 1.0)]),
    "inner M4": lambda: _inner([(4, 1.0)]),
    "inner M4+M2+C": lambda: _inner([(4, 0.5), (2, 0.3), (1, 0.2)]),
    "inner M2+C, raw span": lambda: _raw_inner([(2, 0.6), (1, 0.4)]),
    "phi_x M2+C rotated": lambda: phi_x(derivation_space(
        rotated(multimatrix([(2, 0.6), (1, 0.4)]), np.random.default_rng(4)))),
    "full C2 x| Z/2 over C2": lambda: restrict_scalars(
        full_module(_crossed("C2 x| Z/2").algebra), _crossed("C2 x| Z/2")),
    "phi_x C2 x| Z/2 over C2": lambda: restrict_scalars(
        phi_x(derivation_space(_crossed("C2 x| Z/2").algebra)), _crossed("C2 x| Z/2")),
    "phi_x C[Z/3] x| Z/3": lambda: phi_x(derivation_space(_crossed("dual").algebra)),
    "phi_x C[Z/3] x| Z/3 over C[Z/3]": lambda: restrict_scalars(
        phi_x(derivation_space(_crossed("dual").algebra)), _crossed("dual")),
    "phi_x M2+C over its generators": lambda: phi_x(
        derivation_space(multimatrix([(2, 0.6), (1, 0.4)])),
        multimatrix_generators([(2, 0.6), (1, 0.4)])),
    # the derivations vanishing on C[G], over both coefficient algebras
    "vanishing C2 x| Z/2": lambda: _vanishing("C2 x| Z/2"),
    "vanishing C2 x| Z/2 over C2": lambda: restrict_scalars(
        _vanishing("C2 x| Z/2"), _crossed("C2 x| Z/2")),
    "vanishing C[Z/3] x| Z/3": lambda: _vanishing("dual"),
    "vanishing C[Z/3] x| Z/3 over C[Z/3]": lambda: restrict_scalars(
        _vanishing("dual"), _crossed("dual")),
    # sums of block parts that are not right submodules
    "E (x) N, leg-a operators": lambda: _sum_of_blocks(0),
    "N (x) E, leg-b operators": lambda: _sum_of_blocks(1),
}


def _outcome(fn, sub):
    try:
        return fn(sub)
    except SteinlabError as exc:
        return type(exc)


def test_phi_x_basis_spans_the_raw_phi_span():
    # the basis phi_x whitens and orthonormalizes by block, against one
    # orthonormalization of phi_X's span formed from the raw derivations
    blocks = [(2, 0.6), (1, 0.4)]
    cp = _crossed("dual")
    vanishing = relative_derivations(derivation_space(cp.algebra), cp.embed_group)
    for space, gens in ((derivation_space(multimatrix(blocks)), multimatrix_generators(blocks)),
                        (vanishing, np.eye(cp.algebra.dim, dtype=complex))):
        n, k, t = space.algebra.dim, gens.shape[1], space.algebra.onb_factor
        raw = np.einsum("rpj,jx->xpr", space.columns(slice(None)), gens).reshape(k * n * n, space.rank)
        want = gram_onb(_apply((t, t), raw, (k, n, n)))
        got = _apply((t, t), dense_reference.module_span(phi_x(space, gens)), (k, n, n))
        assert got.shape == want.shape
        assert np.max(np.abs(got @ got.conj().T - want @ want.conj().T)) < 1e-12


@pytest.mark.parametrize("name", list(MODULES))
def test_block_split_matches_dense_projector(name):
    sub = MODULES[name]()
    # an inner module against its raw span, formed apart from its blocks
    blocks = INNER.get(name.removeprefix("inner "))
    span = None if blocks is None else _raw_span(blocks)[0]
    got = _outcome(vn_dimension, sub)
    want = _outcome(lambda s: dense_vn_dimension(s, span), sub)
    if isinstance(want, type):
        assert got is want
    else:
        assert abs(got.value - want[0]) < 1e-12
        assert got.rank == want[1]


@pytest.mark.parametrize("blocks", [[(2, 1.0)], [(1, 0.5), (1, 0.5)]], ids=["M2", "C2"])
def test_rank_certificate_rejects_a_cyclic_vector(blocks):
    # 1 (x) 1 is cyclic for the right action, not invariant: its spectral
    # block parts span more than it, and for C2 all of L^2(C2 (x) C2^op);
    # the closure test against the span itself rejects it
    alg = multimatrix(blocks)
    unit = np.kron(alg.unit, alg.unit).reshape(-1, 1)
    ops = alg.right_ops(alg.with_stars(multimatrix_generators(blocks)))
    sub = dense_reference.module_from_span(alg, 1, unit, ops, unit)
    with pytest.raises(NotRightClosed, match="commutant residual"):
        vn_dimension(sub)


def test_vn_dimension_is_deterministic():
    sub = _inner([(4, 0.5), (2, 0.3), (1, 0.2)])
    first, second = vn_dimension(sub), vn_dimension(sub)
    assert first.value == second.value
    assert first.rank == second.rank
    assert first.closure_residual == second.closure_residual


# -- the closure test: random operator combinations per leg ----------------------

def _all_but_one(leg: int, odd: int) -> tuple[ModuleSubspace, ModuleSubspace]:
    """(module, control) on L^2 = C^4 (x) C^4 with three right operators per
    leg, all diagonal with distinct entries but the one at position odd on
    leg, a small antisymmetric O. W = span(e_i (x) e_j, i, j < 2) is
    invariant under every diagonal operator and not under O. The module
    is over C[Z/4], whose basis is GNS-orthonormal. O + O^* = 0
    adds nothing to the cluster combination sum t_j (a_j + a_j^*), so the
    spectral blocks are the lines e_i (x) e_j and W is a sum of them; only
    the closure test can see O. The control is the same span without O."""
    rng = np.random.default_rng(11)
    mats = [[np.diag(rng.standard_normal(4)).astype(complex) for _ in range(3)] for _ in (0, 1)]
    a = rng.standard_normal((4, 4))
    mats[leg][odd] = 1e-4 * (a - a.T).astype(complex)
    ops = [(side, m) for side in (0, 1) for m in mats[side]]
    odd_op = ops[3 * leg + odd]
    eye = np.eye(4, dtype=complex)
    span = np.kron(eye[:, :2], eye[:, :2])
    unit = np.kron(eye[:, :1], eye[:, :1])
    alg = group_algebra(cyclic(4))
    module = dense_reference.module_from_span(alg, 1, span, ops, unit)
    control = dense_reference.module_from_span(alg, 1, span, [op for op in ops if op is not odd_op], unit)
    return module, control


@pytest.mark.parametrize("odd", [0, 1, 2], ids=["first", "middle", "last"])
@pytest.mark.parametrize("leg", [0, 1], ids=["leg a", "leg b"])
def test_closure_test_sees_the_one_operator_that_breaks_invariance(leg, odd):
    module, control = _all_but_one(leg, odd)
    assert vn_dimension(control).closure_residual < 1e-12
    with pytest.raises(NotRightClosed, match="commutant residual"):
        vn_dimension(module)


def _count_passes(monkeypatch) -> list:
    """Record (leg, combinations, vectors) of each stacked closure pass."""
    applied = []
    residual = vndim._sketch_residual

    def counted(basis, ncoords, leg, mats, z):
        applied.append((leg, len(mats), len(z)))
        return residual(basis, ncoords, leg, mats, z)

    monkeypatch.setattr(vndim, "_sketch_residual", counted)
    return applied


def test_closure_test_applies_one_stacked_pass_per_leg(monkeypatch):
    # one pass per leg, carrying one combination and one random vector per draw
    sub = MODULES["inner M2+C, raw span"]()
    applied = _count_passes(monkeypatch)
    vn_dimension(sub)
    draws = vndim.CLOSURE_DRAWS
    assert sorted(applied) == [(0, draws, draws), (1, draws, draws)]


def _reference_draws(counts, rank):
    """The closure test's t and z drawn one combination at a time: t for
    each draw and each leg with operators, then one z per combination."""
    rng = np.random.default_rng(vndim._CLOSURE_SEED)

    def gaussian(size):
        x, y = rng.standard_normal((2, size))
        return (x + 1j * y) / np.sqrt(2)

    combos = [(leg, gaussian(count)) for _ in range(vndim.CLOSURE_DRAWS)
              for leg, count in enumerate(counts) if count]
    return [(leg, t, gaussian(rank)) for leg, t in combos]


@pytest.mark.parametrize("counts, rank", [([6, 6], 33), ([3, 0], 5), ([0, 4], 7), ([5, 2], 0)])
def test_stacked_draws_are_the_one_at_a_time_draws(counts, rank):
    stacked = vndim._closure_draws(counts, rank)
    ref = _reference_draws(counts, rank)
    assert [leg for leg, _, _ in stacked] == [leg for leg, c in enumerate(counts) if c]
    for i, (leg, t, z) in enumerate(stacked):
        assert t.shape == (vndim.CLOSURE_DRAWS, counts[leg])
        assert z.shape == (vndim.CLOSURE_DRAWS, rank)
        for draw in range(vndim.CLOSURE_DRAWS):
            ref_leg, ref_t, ref_z = ref[draw * len(stacked) + i]
            assert ref_leg == leg
            assert np.array_equal(t[draw], ref_t) and np.array_equal(z[draw], ref_z)


def test_closure_test_of_a_rank_zero_module(monkeypatch):
    # C has no derivations: the inner module is rank 0, and each leg's
    # pass applies its combinations to the zero vector
    alg = multimatrix([(1, 1.0)])
    sub = inner_derivation_module(alg, np.ones((1, 1)))
    applied = _count_passes(monkeypatch)
    res = vn_dimension(sub)
    assert (res.rank, res.value, res.closure_residual) == (0, 0.0, 0.0)
    draws = vndim.CLOSURE_DRAWS
    assert sorted(applied) == [(0, draws, draws), (1, draws, draws)]


@pytest.mark.parametrize("leg", [0, 1], ids=["leg a", "leg b"])
def test_closure_test_of_operators_on_one_leg(monkeypatch, leg):
    # diagonal operators on one leg keep the span of the coordinate
    # vectors e_i (x) e_j, i, j < 2; an off-diagonal one on that leg does not
    rng = np.random.default_rng(12)
    alg = group_algebra(cyclic(4))
    eye = np.eye(4, dtype=complex)
    span = np.kron(eye[:, :2], eye[:, :2])
    unit = np.kron(eye[:, :1], eye[:, :1])
    ops = [(leg, np.diag(rng.standard_normal(4)).astype(complex)) for _ in range(3)]
    applied = _count_passes(monkeypatch)
    res = vn_dimension(dense_reference.module_from_span(alg, 1, span, ops, unit))
    assert res.closure_residual < 1e-12
    assert applied == [(leg, vndim.CLOSURE_DRAWS, vndim.CLOSURE_DRAWS)]
    a = rng.standard_normal((4, 4))
    odd = ops + [(leg, 1e-4 * (a - a.T).astype(complex))]
    with pytest.raises(NotRightClosed, match="commutant residual"):
        vn_dimension(dense_reference.module_from_span(alg, 1, span, odd, unit))


# -- block-localized inner spans against the dense projector ---------------------

INNER = {
    "M2": [(2, 1.0)],
    "M3": [(3, 1.0)],
    "M4": [(4, 1.0)],
    "M5": [(5, 1.0)],
    "M4+M2+C": [(4, 0.5), (2, 0.3), (1, 0.2)],
}


@pytest.mark.parametrize("name", list(INNER))
def test_inner_module_matches_dense_projector(name):
    sub = _inner(INNER[name])
    got = vn_dimension(sub)
    value, rank = dense_vn_dimension(sub, _raw_span(INNER[name])[0])
    assert got.rank == rank
    assert abs(got.value - value) < 1e-10


def _raw_span(blocks):
    """The raw inner span of _raw_inner, its algebra and argument set."""
    alg, gens = multimatrix(blocks), multimatrix_generators(blocks)
    return dense_reference.inner_span(alg, gens), alg, gens


def _rotated(span: np.ndarray, legs: list, ncoords: int) -> np.ndarray:
    """A raw span in the rotated coordinates of both legs, laid out as a
    module's unknowns (a n + b) ncoords + c, one column per column of
    span."""
    (rot_a, *_), (rot_b, *_) = legs
    n = len(rot_a)
    t = np.einsum("ai,bj,kijr->abkr", rot_a, rot_b, span.reshape(ncoords, n, n, -1))
    return t.reshape(n * n * ncoords, -1)


def _spectral_blocks(legs: list, ncoords: int) -> np.ndarray:
    """The spectral block (cluster of leg a, cluster of leg b) of each
    unknown (a n + b) ncoords + c, numbered from the cluster sizes of the
    classes of the algebra's spectral_legs."""
    la, lb = (np.repeat(np.arange(sum(a for _, a, _ in classes)),
                        [d for _, a, d in classes for _ in range(a)])
              for _, _, classes in legs)
    return np.repeat((la[:, None] * (lb.max() + 1) + lb).ravel(), ncoords)


@pytest.mark.parametrize("name", ["M2+C", "M4", "M4+M2+C"])
def test_inner_span_columns_lie_in_one_spectral_block(name):
    blocks = {"M2+C": [(2, 0.6), (1, 0.4)], "M4": INNER["M4"], "M4+M2+C": INNER["M4+M2+C"]}
    span, alg, _ = _raw_span(blocks[name])
    sub = _inner(blocks[name])
    labels = _spectral_blocks(alg.spectral_legs, sub.ncoords)
    norms = np.zeros((labels.max() + 1, span.shape[1]))
    np.add.at(norms, labels, np.abs(_rotated(span, sub.legs, sub.ncoords)) ** 2)
    # the module's blocks are these spectral blocks
    for cols, _, _ in sub.basis.parts:
        assert all(len(set(labels[c])) == 1 for c in cols)
    second = np.sqrt(np.sort(norms, axis=0)[-2])
    norms = np.sqrt(norms)
    assert second.max() <= 1e-12 * norms.max()


@pytest.mark.parametrize("leak", [1e-14, 1e-6])
def test_leak_between_blocks_is_dropped_or_merges_components(leak):
    # the same subspace, with some columns of the localized inner span
    # mixed into columns that lie in other spectral blocks
    span, alg, gens = _raw_span([(3, 0.6), (1, 0.4)])
    sub = dense_reference.inner_module(alg, gens)
    rng = np.random.default_rng(5)
    r = span.shape[1]
    mix = np.eye(r, dtype=complex)
    mix[rng.permutation(r)[:6], rng.permutation(r)[:6]] += leak
    leaky = dense_reference.module_from_span(alg, sub.ncoords, span @ mix, sub.right_ops,
                                     sub.trace_vectors)
    got = vn_dimension(leaky)
    value, rank = dense_vn_dimension(leaky)
    assert got.rank == rank
    assert abs(got.value - value) < 1e-10


def test_localized_span_missing_a_column_is_rejected():
    span, alg, gens = _raw_span([(3, 0.6), (1, 0.4)])
    sub = dense_reference.inner_module(alg, gens)
    drop = int(np.argmax(np.linalg.norm(span, axis=0)))
    cut = dense_reference.module_from_span(alg, sub.ncoords, np.delete(span, drop, axis=1),
                                   sub.right_ops, sub.trace_vectors)
    with pytest.raises(NotRightClosed):
        vn_dimension(cut)


# -- inner modules built directly in the rotated spectral blocks -----------------

@pytest.mark.parametrize("name", ["M2", "M3", "M4", "M5", "M4+M2+C", "M3+M3+C"])
def test_inner_blocks_equal_the_blocks_gathered_from_the_raw_span(name):
    # the projectors onto the direct blocks, placed on the block diagonal,
    # against the dense projector of the raw span in the same coordinates
    blocks = {**INNER, "M3+M3+C": [(3, 0.4), (3, 0.35), (1, 0.25)]}[name]
    sub = _inner(blocks)
    span, alg, _ = _raw_span(blocks)
    k, nn = sub.ncoords, alg.dim**2
    q = gram_onb(_rotated(span, sub.legs, k))
    assert sub.basis.ncols == k * nn
    assert sub.basis.shape[1] == q.shape[1]
    got = np.zeros((k * nn, k * nn), dtype=complex)
    for cols, vecs, _ in sub.basis.parts:
        for idx, qb in zip(cols, vecs):
            got[np.ix_(idx, idx)] = qb @ qb.conj().T
    assert np.max(np.abs(got - q @ q.conj().T)) < 1e-13


def test_split_degenerate_eigenspaces_leak_out_of_the_inner_blocks(monkeypatch):
    # with no cluster gap the multiplicity-3 eigenspaces of the right
    # action on M3 are cut apart, no longer spectral projections, and
    # left multiplication leaks across the cuts
    monkeypatch.setattr(_linalg, "CLUSTER_GAP", 0.0)
    leak = r"leaks \S+ out of its spectral blocks, above the drop bound"
    with pytest.raises(NotRightClosed, match=leak):
        vn_dimension(_inner([(3, 1.0)]))


def _inner_peak(n: int, at_s: bool = False) -> tuple:
    """vn_dimension of Der(M_n) through the inner path, at
    multimatrix_generators or, as `steinlab dim` reads it, at the
    generating basis elements S, and its tracemalloc peak."""
    alg = multimatrix([(n, 1.0)])
    gens = (np.eye(alg.dim)[:, alg.generating_indices] if at_s
            else multimatrix_generators([(n, 1.0)]))
    tracemalloc.start()
    try:
        got = vn_dimension(inner_derivation_module(alg, gens))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return got, peak


def test_inner_module_of_m6_holds_little_more_than_its_basis():
    # M6's block bases are 36 blocks of 108 x 36, 2.1 MiB, built and cut a
    # row of 6 blocks at a time and tested on one random vector at a time,
    # and read a few blocks at a time; the rank is
    # that of the inner derivations, dim L^2(N) less the center's n^2
    got, peak = _inner_peak(6)
    assert abs(got.value - (1.0 - 1.0 / 36)) < 1e-10
    assert got.rank == 6**4 - 6**2
    assert peak < 6 * 2**20


def test_inner_module_of_m8():
    # M8's block bases are 64 blocks of 192 x 64, 12 MiB, held once; the
    # build holds one row of 8 blocks beside them, the closure test a few
    # vectors of 3 * 64^2 entries and the readout one block's products
    got, peak = _inner_peak(8)
    assert abs(got.value - (1.0 - 1.0 / 64)) < 1e-10
    assert peak < 32 * 2**20


def test_dim_reads_m7_at_its_generating_basis_elements():
    # S of matrix-unit M7 has 13 elements in an arrow pattern; the split of
    # the algebra itself still gives each leg 7 clusters of 7, so the module
    # is 49 blocks of 637 x 49 (24 MiB), where a split by S's operators made
    # one cluster of 35 and peaked at 1.5 GiB
    got, peak = _inner_peak(7, at_s=True)
    assert abs(got.value - 48 / 49) < 1e-12
    assert got.rank == 7**4 - 7**2
    assert peak < 64 * 2**20


@pytest.mark.parametrize("blocks", [[(4, 1.0)], [(4, 0.5), (2, 0.3), (1, 0.2)]],
                         ids=["M4", "M4+M2+C"])
def test_inner_legs_do_not_depend_on_the_argument_set(blocks):
    # the spectral coordinates are the algebra's: the basis, the generating
    # basis elements and multimatrix_generators give the same legs
    alg = multimatrix(blocks)
    eye = np.eye(alg.dim, dtype=complex)
    subs = [inner_derivation_module(alg, gens)
            for gens in (eye, eye[:, alg.generating_indices], multimatrix_generators(blocks))]
    for sub in subs[1:]:
        for (rot, inv), (rot0, inv0) in zip(sub.legs, subs[0].legs):
            assert np.array_equal(rot, rot0) and np.array_equal(inv, inv0)


def test_inner_builder_refuses_blocks_above_the_dense_limit(monkeypatch):
    # M3's inner blocks at multimatrix_generators are 9 of 27 x 9, 35 KB of
    # kept bases; under a 30 KB limit the builder refuses them before it
    # forms a block or runs an SVD, where it used to fail inside numpy
    alg = multimatrix([(3, 1.0)])
    gens = multimatrix_generators([(3, 1.0)])
    assert vndim._inner_bytes(3, *(leg[2] for leg in alg.spectral_legs)) > 30_000
    svd, stacks = np.linalg.svd, []

    def counted(a, *args, **kwargs):
        stacks.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    monkeypatch.setattr(_linalg, "DENSE_LIMIT", 30_000)
    with pytest.raises(DenseLimitExceeded, match="inner blocks of up to 27 x 9 need"):
        inner_derivation_module(alg, gens)
    # the generating-set test before the builder takes 2-d SVDs only
    assert all(len(shape) == 2 for shape in stacks)


def test_m3_crossed_by_s3_through_the_inner_path():
    # S3 acting on M3 by conjugation with its permutation unitaries:
    # M3 x| S3 = M3 (x) C[S3] = M3 + M3 + M6 with weights 1/6, 1/6, 2/3,
    # so dim Der = 1 - 1/54; the generators and the six u_g give 18 right
    # operators
    m3 = multimatrix([(3, 1.0)])
    us = np.zeros((6, 9), dtype=complex)
    for g, p in enumerate(itertools.permutations(range(3))):
        us[g, [p[i] * 3 + i for i in range(3)]] = 1.0
    cp = crossed_product(m3, ad_action(symmetric_3(), m3, us))
    gens = np.column_stack([cp.lift(x) for x in multimatrix_generators([(3, 1.0)]).T]
                           + [cp.u(g) for g in range(6)])
    start = time.perf_counter()
    value = vn_dimension(inner_derivation_module(cp.algebra, gens)).value
    elapsed = time.perf_counter() - start
    assert abs(value - (1 - 1 / 54)) < 1e-10
    assert elapsed < 3.0


# -- the kernel route: phi_X(Der A), X the basis, read from the Leibniz kernel ---

def _corpus_algebras() -> dict:
    out = {}
    for spec in reports.corpus_specs(seed=0):
        out[spec.label] = spec.algebra
        out[spec.label + " crossed"] = crossed_product(spec.algebra, spec.action).algebra
    return out


@pytest.mark.parametrize("name", list(_corpus_algebras()))
def test_kernel_route_matches_the_spectral_route(name):
    space = derivation_space(_corpus_algebras()[name])
    sub = phi_x(space)
    assert sub.basis is space.kernel
    got = vn_dimension(sub)
    value, rank = dense_vn_dimension(sub)
    assert got.route == "kernel"
    assert got.rank == rank
    assert abs(got.value - value) < 1e-12
    assert got.closure_residual < 1e-12


@pytest.mark.parametrize("blocks", [[(2, 1.0)], [(2, 0.5), (1, 0.5)]], ids=["M2", "M2+C"])
def test_kernel_module_missing_one_block_is_not_right_closed(blocks):
    # the parts of a matrix-unit kernel group blocks of one shape, which
    # the right action permutes, so one block of a part is left out
    alg = multimatrix(blocks)
    kernel = derivation_space(alg).kernel
    for i, (cols, vecs, first) in enumerate(kernel.parts):
        parts = list(kernel.parts)
        parts[i] = (cols[1:], vecs[1:], first[1:])
        sub = phi_x(DerivationSpace(alg, kernel=BlockKernel(kernel.ncols, tuple(parts))))
        with pytest.raises(NotRightClosed, match="commutant residual"):
            vn_dimension(sub)


def test_kernel_route_never_forms_the_derivation_basis(monkeypatch):
    def refuse(*args):
        raise AssertionError("the derivation basis was formed")

    monkeypatch.setattr(DerivationSpace, "columns", refuse)
    for blocks in ([(2, 0.5), (1, 0.5)], [(3, 0.6), (1, 0.4)]):
        res = vn_dimension(phi_x(derivation_space(multimatrix(blocks))))
        assert res.route == "kernel"
        assert abs(res.value - (1 - sum(a * a / (n * n) for n, a in blocks))) < 1e-12
    # an argument set other than the basis is read from the whitened
    # kernel too
    space = derivation_space(multimatrix([(2, 1.0)]))
    res = vn_dimension(phi_x(space, multimatrix_generators([(2, 1.0)])))
    assert res.route == "kernel"
    assert abs(res.value - 0.75) < 1e-12


def test_vanishing_space_is_read_without_forming_a_derivation_basis(monkeypatch):
    # relative_derivations solves on the whitened kernel, and its result is
    # again a kernel by block: dim_van_big = dim Der(A) / |G| and
    # dim_van_base = |G| dim Der(A), here with dim Der(A) = 1/2 and 2/3
    def refuse(*args):
        raise AssertionError("the derivation basis was formed")

    monkeypatch.setattr(DerivationSpace, "columns", refuse)
    for name, dim_a in (("C2 x| Z/2", 0.5), ("dual", 2 / 3)):
        cp = _crossed(name)
        k = cp.group.order
        sub = phi_x(relative_derivations(derivation_space(cp.algebra), cp.embed_group))
        big = vn_dimension(sub)
        assert big.route == "kernel"
        assert abs(big.value - dim_a / k) < 1e-12
        assert abs(vn_dimension(restrict_scalars(sub, cp)).value - k * dim_a) < 1e-12


@pytest.mark.parametrize("cond", [1.0, 10.0, 100.0])
def test_vanishing_dimension_does_not_depend_on_the_basis(cond):
    # the derivations of M2+C vanishing on its center, spanned by 1 and
    # e11 + e22, under S = U diag(1 .. 1/cond) V
    base = multimatrix([(2, 0.6), (1, 0.4)])
    centre = np.zeros((5, 2), dtype=complex)
    centre[:, 0] = base.unit
    centre[[0, 3], 1] = 1.0
    rng = np.random.default_rng(3)
    u, v = random_unitary(rng, 5), random_unitary(rng, 5)
    s = u @ np.diag(np.logspace(0, -np.log10(cond), 5)) @ v
    alg = in_basis(base, s)
    got = vn_dimension(phi_x(relative_derivations(derivation_space(alg), np.linalg.solve(s, centre))))
    want = vn_dimension(phi_x(relative_derivations(derivation_space(base), centre)))
    assert abs(want.value - 0.27) < 1e-12
    assert abs(got.value - 0.27) < 1e-10


# -- the closure test against one dense projector ----------------------------------

def _dense_basis(basis: BlockKernel) -> np.ndarray:
    """The basis as columns, part by part and block by block, the order in
    which the closure test reads its random coefficients (vectors() needs
    the vector offsets that leaving a block out breaks)."""
    dense = np.zeros((basis.ncols, basis.shape[1]), dtype=complex)
    col = 0
    for cols, vecs, _ in basis.parts:
        for b in range(len(cols)):
            dense[cols[b], col : col + vecs.shape[2]] = vecs[b]
            col += vecs.shape[2]
    return dense


def _without_one_block(basis: BlockKernel) -> BlockKernel:
    """basis with the first block of its largest part left out."""
    parts = list(basis.parts)
    i = max(range(len(parts)), key=lambda p: parts[p][1].size)
    cols, vecs, first = parts[i]
    parts[i] = (cols[1:], vecs[1:], first[1:])
    return BlockKernel(basis.ncols, tuple(parts))


CLOSURE_MODULES = {
    "kernel M2+C": lambda: phi_x(derivation_space(multimatrix([(2, 0.5), (1, 0.5)]))),
    # several classes and several clusters per class on both legs
    "inner M4+M2+C": lambda: _inner(INNER["M4+M2+C"]),
    "inner M3+M3+C": lambda: _inner([(3, 0.4), (3, 0.35), (1, 0.25)]),
}


@pytest.mark.parametrize("drop", [False, True], ids=["closed", "one block left out"])
@pytest.mark.parametrize("name", list(CLOSURE_MODULES))
def test_closure_residual_is_the_dense_residual(name, drop):
    # |(1 - P) T Q z| / max(1, |T Q z|) from the blocks, one stacked pass
    # per leg, against the dense basis in the module's coordinates, for
    # each operator T and vector z the closure test draws, on both legs
    sub = CLOSURE_MODULES[name]()
    basis = _without_one_block(sub.basis) if drop else sub.basis
    alg, k = sub.algebra, sub.ncoords
    n = alg.dim
    dense = _dense_basis(basis)
    legs = sub.legs or 2 * ((alg.onb_factor, alg.onb_inverse),)
    ops = vndim._test_ops(sub.right_ops, legs, basis.shape[1])
    assert [leg for leg, _, _ in ops] == [0, 1]
    for leg, mats, zs in ops:
        got = vndim._sketch_residual(basis, k, leg, mats, zs)
        assert got.shape == (vndim.CLOSURE_DRAWS,)
        for draw, (mat, z) in enumerate(zip(mats, zs)):
            v = (dense @ z).reshape(n, n, k)
            img = np.einsum("xa,abk->xbk", mat, v) if leg == 0 else np.einsum("yb,abk->ayk", mat, v)
            img = img.ravel()
            rem = img - dense @ (dense.conj().T @ img)
            want = np.linalg.norm(rem) / max(1.0, np.linalg.norm(img))
            assert abs(got[draw] - want) < 1e-12
            assert (got[draw] > 1e-3) == drop


def test_kernel_closure_test_holds_little_beyond_the_basis():
    # C^4 x| D4 (dim 32, 992 kernel vectors): the closure test holds a few
    # vectors of 32^2 entries and one part's gather beside the basis, where
    # dense leg images of every kernel column took 38 MiB
    c4 = multimatrix([(1, 0.25)] * 4)
    perms = [[(a + (q if b == 0 else -q)) % 4 for q in range(4)] for b in range(2) for a in range(4)]
    cp = crossed_product(c4, permutation_action(dihedral_4(), c4, perms))
    sub = phi_x(derivation_space(cp.algebra))
    tracemalloc.start()
    try:
        got = vn_dimension(sub)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.rank == 32**2 - 32
    assert abs(got.value - 31 / 32) < 1e-12
    assert peak < 8 * 2**20
