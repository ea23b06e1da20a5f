import itertools
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from steinlab import (
    DerivationSpace,
    InnerModule,
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
import steinlab.derivations as derivations
import steinlab.vndim as vndim
from steinlab import _linalg, reports
from steinlab._linalg import BlockKernel, gram_onb, span_basis
from steinlab.vndim import CLOSURE_TOL, _right_ops, _with_stars
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
    sub = ModuleSubspace.from_span(
        algebra=alg,
        ncoords=1,
        span=vec,
        right_ops=_right_ops(alg, list(np.eye(4))),
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
    assert ModuleSubspace.from_span(alg, 1, unit, [(0, m), (1, m)], unit).right_ops
    with pytest.raises(ValueError, match="a right operator is"):
        ModuleSubspace.from_span(alg, 1, unit, [(0, m), bad], unit)


@pytest.mark.parametrize("blocks", [[(2, 1.0)], [(2, 0.5), (1, 0.5)]])
def test_phi_x_of_one_derivation_is_not_right_closed(blocks):
    # the generator right operators alone must reject a non-module span
    space = derivation_space(multimatrix(blocks))
    cut = DerivationSpace(space.algebra, span_basis(space.kernel.dense()[:, :1]))
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


def test_restrict_scalars_refuses_an_inner_module():
    # an inner module holds only the blocks of its own right action
    cp = _crossed("C2 x| Z/2")
    gens = np.column_stack([cp.lift(cp.base.basis(0)), cp.u(1)])
    with pytest.raises(TypeError, match="holds its basis"):
        restrict_scalars(inner_derivation_module(cp.algebra, gens), cp)


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
    sub = ModuleSubspace.from_span(
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


def dense_vn_dimension(sub: ModuleSubspace | InnerModule):
    """Reference: orthonormalize the whole span by one SVD and test
    every right operator against the dense projector onto it. An inner
    module is read through its raw span (dense_reference.inner_span), a
    ModuleSubspace through its basis in raw coordinates (span)."""
    alg, k = sub.algebra, sub.ncoords
    if isinstance(sub, InnerModule):
        span = dense_reference.inner_span(alg, sub.gens)
        omega = np.kron(alg.unit, alg.unit)[:, None]
    else:
        span, omega = sub.span, sub.trace_vectors
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
    return ModuleSubspace.from_span(alg, 1, span, ops, unit)


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
        raw = np.einsum("rpj,jx->xpr", space.basis, gens).reshape(k * n * n, space.rank)
        want = gram_onb(_apply((t, t), raw, (k, n, n)))
        got = _apply((t, t), phi_x(space, gens).span, (k, n, n))
        assert got.shape == want.shape
        assert np.max(np.abs(got @ got.conj().T - want @ want.conj().T)) < 1e-12


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
    # 1 (x) 1 is cyclic for the right action, not invariant: its spectral
    # block parts span more than it, and for C2 all of L^2(C2 (x) C2^op);
    # the closure test against the span itself rejects it
    alg = multimatrix(blocks)
    unit = np.kron(alg.unit, alg.unit).reshape(-1, 1)
    ops = _right_ops(alg, _with_stars(alg, multimatrix_generators(blocks)))
    sub = ModuleSubspace.from_span(alg, 1, unit, ops, unit)
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
    module = ModuleSubspace.from_span(alg, 1, span, ops, unit)
    control = ModuleSubspace.from_span(alg, 1, span, [op for op in ops if op is not odd_op], unit)
    return module, control


@pytest.mark.parametrize("odd", [0, 1, 2], ids=["first", "middle", "last"])
@pytest.mark.parametrize("leg", [0, 1], ids=["leg a", "leg b"])
def test_closure_test_sees_the_one_operator_that_breaks_invariance(leg, odd):
    module, control = _all_but_one(leg, odd)
    assert vn_dimension(control).closure_residual < 1e-12
    with pytest.raises(NotRightClosed, match="commutant residual"):
        vn_dimension(module)


def test_closure_test_applies_two_combinations_per_leg(monkeypatch):
    sub = MODULES["inner M2+C, raw span"]()
    applied = []
    residual = vndim._kernel_residual
    monkeypatch.setattr(vndim, "_kernel_residual",
                        lambda op, *args: applied.append(op) or residual(op, *args))
    vn_dimension(sub)
    assert len(applied) == 2 * vndim.CLOSURE_DRAWS


# -- block-localized inner spans against the dense projector ---------------------

INNER = {
    "M2": [(2, 1.0)],
    "M3": [(3, 1.0)],
    "M4": [(4, 1.0)],
    "M5": [(5, 1.0)],
    "M6": [(6, 1.0)],
    "M4+M2+C": [(4, 0.5), (2, 0.3), (1, 0.2)],
}


@pytest.mark.parametrize("name", list(INNER))
def test_inner_module_matches_dense_projector(name):
    sub = _inner(INNER[name])
    got = vn_dimension(sub)
    value, rank = dense_vn_dimension(sub)
    assert got.rank == rank
    assert abs(got.value - value) < 1e-10


def _raw_span(blocks):
    """The raw inner span of _raw_inner, its algebra and argument set."""
    alg, gens = multimatrix(blocks), multimatrix_generators(blocks)
    return dense_reference.inner_span(alg, gens), alg, gens


def _rotated(span: np.ndarray, legs: list, ncoords: int) -> np.ndarray:
    """A raw span in the rotated coordinates of both legs, shape
    (ncoords, n_a, n_b, columns)."""
    (rot_a, _, _), (rot_b, _, _) = legs
    n = len(rot_a)
    return np.einsum("ai,bj,kijr->kabr", rot_a, rot_b, span.reshape(ncoords, n, n, -1))


@pytest.mark.parametrize("name", ["M2+C", "M4", "M4+M2+C"])
def test_inner_span_columns_lie_in_one_spectral_block(name):
    blocks = {"M2+C": [(2, 0.6), (1, 0.4)], "M4": INNER["M4"], "M4+M2+C": INNER["M4+M2+C"]}
    sub = _inner(blocks[name])
    span = _raw_span(blocks[name])[0]
    views = vndim._class_blocks(_rotated(span, sub.legs, sub.ncoords), sub.legs)
    norms = np.concatenate([
        np.sqrt(np.sum(np.abs(v) ** 2, axis=(0, 2, 4))).reshape(-1, v.shape[-1])
        for v in views.values()
    ])
    second = np.sort(norms, axis=0)[-2]
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
    leaky = ModuleSubspace.from_span(alg, sub.ncoords, span @ mix, sub.right_ops,
                                     sub.trace_vectors)
    got = vn_dimension(leaky)
    value, rank = dense_vn_dimension(leaky)
    assert got.rank == rank
    assert abs(got.value - value) < 1e-10


def test_localized_span_missing_a_column_is_rejected():
    span, alg, gens = _raw_span([(3, 0.6), (1, 0.4)])
    sub = dense_reference.inner_module(alg, gens)
    drop = int(np.argmax(np.linalg.norm(span, axis=0)))
    cut = ModuleSubspace.from_span(alg, sub.ncoords, np.delete(span, drop, axis=1),
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
    q = gram_onb(_rotated(span, sub.legs, k).reshape(k * nn, -1))
    basis, rank = vndim._block_bases(sub.blocks)
    assert rank == q.shape[1]
    # each block's rows as indices into the rotated coordinates
    rows = vndim._class_blocks(np.arange(k * nn).reshape(k, alg.dim, alg.dim, 1), sub.legs)
    got = np.zeros((k * nn, k * nn), dtype=complex)
    for key, (qb, qbh) in basis.items():
        for idx, proj in zip(vndim._block_stack(rows[key])[..., 0], qb @ qbh):
            got[np.ix_(idx, idx)] = proj
    assert np.max(np.abs(got - q @ q.conj().T)) < 1e-13


@pytest.mark.parametrize("drop", [False, True], ids=["closed", "one column left out"])
@pytest.mark.parametrize("name", ["M4+M2+C", "M3+M3+C"])
def test_spectral_closure_residual_is_the_dense_projection_residual(name, drop):
    # |(1 - P) T Q| / max(1, |T Q|) from the block bases against the dense
    # basis in the rotated coordinates, for each operator the closure test
    # applies, on both legs; both algebras have several classes and several
    # clusters per class
    blocks = {**INNER, "M3+M3+C": [(3, 0.4), (3, 0.35), (1, 0.25)]}[name]
    sub = _inner(blocks)
    k, n = sub.ncoords, sub.algebra.dim
    basis, _ = vndim._block_bases(sub.blocks)
    if drop:
        key = max(basis, key=lambda c: basis[c][0].shape[2])
        q = basis[key][0].copy()
        q[0, :, 0] = 0.0
        basis[key] = (q, q.conj().transpose(0, 2, 1))
    # each block's columns placed on its rows of the rotated coordinates
    rows = vndim._class_blocks(np.arange(k * n * n).reshape(k, n, n, 1), sub.legs)
    cols = []
    for key, (qb, _) in basis.items():
        for idx, block in zip(vndim._block_stack(rows[key])[..., 0], qb):
            col = np.zeros((k * n * n, block.shape[1]), dtype=complex)
            col[idx] = block
            cols.append(col)
    dense = np.concatenate(cols, axis=1)
    ops = vndim._test_ops(sub.right_ops, sub.legs)
    assert sorted({leg for leg, _ in ops}) == [0, 1]
    for leg, mat in ops:
        v = dense.reshape(k, n, n, -1)
        img = np.einsum("xa,kabr->kxbr", mat, v) if leg == 0 else np.einsum("yb,kabr->kayr", mat, v)
        img = img.reshape(k * n * n, -1)
        rem = img - dense @ (dense.conj().T @ img)
        want = np.linalg.norm(rem) / max(1.0, np.linalg.norm(img))
        got = vndim._closure_residual((leg, mat), basis, sub.legs, k)
        assert abs(got - want) < 1e-12
        assert (got > 1e-3) == drop


def test_split_degenerate_eigenspaces_leak_out_of_the_inner_blocks(monkeypatch):
    # with no cluster gap the multiplicity-3 eigenspaces of the right
    # action on M3 are cut apart, no longer spectral projections, and
    # left multiplication leaks across the cuts
    monkeypatch.setattr(_linalg, "CLUSTER_GAP", 0.0)
    leak = r"leaks \S+ out of its spectral blocks, above the drop bound"
    with pytest.raises(NotRightClosed, match=leak):
        vn_dimension(_inner([(3, 1.0)]))


def test_inner_module_of_m8():
    # 150 MiB is the inner path's memory goal, met because the closure test
    # holds one target cluster's slab of blocks at a time
    tracemalloc.start()
    try:
        got = vn_dimension(_inner([(8, 1.0)]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert abs(got.value - (1.0 - 1.0 / 64)) < 1e-10
    assert peak < 150 * 2**20


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

    monkeypatch.setattr(derivations, "kernel_basis", refuse)
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

    monkeypatch.setattr(derivations, "kernel_basis", refuse)
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


@pytest.mark.parametrize("drop", [False, True], ids=["closed", "one block left out"])
def test_kernel_closure_residual_is_the_dense_projection_residual(drop):
    # |(1 - P) T Q| and |T Q| from the blocks against the dense kernel basis,
    # for each operator the closure test applies
    alg = multimatrix([(2, 0.5), (1, 0.5)])
    kernel = derivation_space(alg).kernel
    if drop:
        cols, vecs, first = kernel.parts[1]
        kernel = BlockKernel(kernel.ncols, (kernel.parts[0], (cols[1:], vecs[1:], first[1:]),
                                            *kernel.parts[2:]))
    n, t = alg.dim, alg.onb_factor
    # the kernel basis as columns, block by block (dense() needs the
    # column offsets that leaving a block out breaks)
    dense = np.zeros((kernel.ncols, kernel.shape[1]), dtype=complex)
    col = 0
    for cols, vecs, _ in kernel.parts:
        for b in range(len(cols)):
            dense[cols[b], col : col + vecs.shape[2]] = vecs[b]
            col += vecs.shape[2]
    index = vndim._kernel_index(kernel)
    ops = vndim._test_ops(phi_x(derivation_space(alg)).right_ops, [(t, alg.onb_inverse, None)] * 2)
    for leg, mat in ops:
        fibers = vndim._kernel_fibers(kernel, n, n * n if leg == 0 else n)
        img2, rem2 = vndim._kernel_residual(mat, kernel, fibers, index)
        v = dense.reshape(n, n, n, -1)
        img = np.einsum("xa,abkr->xbkr", mat, v) if leg == 0 else np.einsum("yb,abkr->aykr", mat, v)
        img = img.reshape(kernel.ncols, -1)
        rem = img - dense @ (dense.conj().T @ img)
        assert abs(np.sqrt(img2) - np.linalg.norm(img)) < 1e-12
        assert abs(np.sqrt(rem2) - np.linalg.norm(rem)) < 1e-12
        assert (np.linalg.norm(rem) > 1e-3) == drop
