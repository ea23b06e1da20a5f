import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from steinlab import (
    ActionInvalid,
    FiniteGroup,
    GroupAction,
    GroupInvalid,
    NotAbelian,
    NotSemisimple,
    NotSubgroup,
    RankAmbiguous,
    ad_action,
    center_basis,
    characters,
    commutator_span,
    crossed_product,
    cyclic,
    dihedral_4,
    direct_product,
    dual_action,
    generates,
    group_algebra,
    group_central_family,
    matrix_units,
    multimatrix,
    multimatrix_decompose,
    multimatrix_generators,
    permutation_action,
    regular_representation,
    scaled_generating_set,
    scaling_residual,
    span_equal,
    subalgebra_generate,
    subgroup,
    symmetric_3,
    trivial_action,
    validate,
    validate_action,
)

from steinlab import _linalg, constructions
from test_algebra import _shipped_algebras
from test_derivations import in_basis, random_unitary, rotated

import dense_reference as ref

# -- groups ---------------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 3, 6])
def test_cyclic_groups(n):
    g = cyclic(n)
    assert g.order == n
    assert g.identity == 0
    assert g.is_abelian
    for a in range(n):
        assert g.mul(a, g.inv(a)) == g.identity


def test_symmetric_3_is_the_nonabelian_order_6_group():
    s3 = symmetric_3()
    assert s3.order == 6
    assert not s3.is_abelian


def test_dihedral_4():
    d4 = dihedral_4()
    assert d4.order == 8
    assert not d4.is_abelian


def test_direct_product_order_and_commutativity():
    v4 = direct_product(cyclic(2), cyclic(2))
    assert v4.order == 4
    assert v4.is_abelian
    assert all(v4.mul(a, a) == v4.identity for a in range(4))


def test_bad_table_rejected():
    with pytest.raises(GroupInvalid):
        FiniteGroup(2, np.array([[0, 1], [1, 1]]))


def test_subgroup_of_z4():
    z4 = cyclic(4)
    h, embedding = subgroup(z4, [0, 2])
    assert h.order == 2
    assert list(embedding) == [0, 2]
    with pytest.raises(NotSubgroup):
        subgroup(z4, [0, 1, 2])


@settings(max_examples=20, deadline=None)
@given(st.lists(st.sampled_from([2, 3, 4]), min_size=1, max_size=2))
def test_characters_are_orthonormal(factors):
    g = cyclic(factors[0])
    for n in factors[1:]:
        g = direct_product(g, cyclic(n))
    chars = characters(g)
    assert len(chars) == g.order
    mat = np.array([[chi(a) for a in range(g.order)] for chi in chars])
    gram = mat @ mat.conj().T / g.order
    assert np.max(np.abs(gram - np.eye(g.order))) < 1e-8
    # multiplicativity
    for chi in chars:
        for a in range(g.order):
            for b in range(g.order):
                assert abs(chi(g.mul(a, b)) - chi(a) * chi(b)) < 1e-8


def test_characters_need_abelian():
    with pytest.raises(NotAbelian):
        characters(symmetric_3())


def test_regular_representation_is_a_homomorphism():
    g = symmetric_3()
    rho = regular_representation(g)
    for a in range(g.order):
        assert np.array_equal(rho[a] @ rho[0], rho[a])
        for b in range(g.order):
            assert np.array_equal(rho[a] @ rho[b], rho[g.mul(a, b)])


# -- algebra constructions --------------------------------------------------------

def test_group_algebra_convolution():
    g = symmetric_3()
    ga = group_algebra(g)
    for a in range(g.order):
        for b in range(g.order):
            prod = ga.mul(ga.basis(a), ga.basis(b))
            want = ga.basis(g.mul(a, b))
            assert np.allclose(prod, want)
    # tau picks out the identity coefficient
    assert abs(ga.tr(ga.basis(g.identity)) - 1.0) < 1e-12
    assert abs(ga.tr(ga.basis(1))) < 1e-12


def test_matrix_units_multiply_correctly():
    blocks = [(2, 0.5), (2, 0.5)]
    alg = multimatrix(blocks)
    units = matrix_units(blocks)
    assert len(units) == 2 and units[0].shape == (2, 2, alg.dim)
    e = units[0]  # first block: e[a, b] = e_ab
    assert np.allclose(alg.mul(e[0, 0], e[0, 1]), e[0, 1])
    assert np.allclose(alg.mul(e[0, 1], e[1, 0]), e[0, 0])
    assert np.allclose(alg.mul(e[0, 1], e[0, 1]), np.zeros(alg.dim))
    assert np.allclose(alg.star_of(e[0, 1]), e[1, 0])
    # units from different blocks annihilate
    assert np.allclose(alg.mul(e[0, 0], units[1][0, 0]), np.zeros(alg.dim))
    # each block sums to a central projection carrying its trace weight
    p0 = e[0, 0] + e[1, 1]
    assert np.allclose(alg.mul(p0, p0), p0)
    assert abs(alg.tr(p0) - 0.5) < 1e-12


def test_multimatrix_generators_generate():
    blocks = [(3, 0.5), (2, 0.3), (1, 0.2)]
    alg = multimatrix(blocks)
    gens = multimatrix_generators(blocks)
    assert gens.shape[0] == alg.dim
    assert generates(alg, list(gens.T))
    assert not generates(alg, [alg.unit])


def test_span_closure_matches_the_whole_span_rounds():
    # every corpus algebra and crossed product, both examples and the
    # dense_ladder inputs at seeds 0-9; gens the first one, two and three
    # basis elements, each set also with a zero element added
    for label, alg in _shipped_algebras().items():
        for k in (1, 2, 3):
            gens = [alg.basis(i) for i in range(min(k, alg.dim))]
            for extra in ([], [np.zeros(alg.dim, dtype=complex)]):
                got = subalgebra_generate(alg, gens + extra)
                want = ref.subalgebra_generate(alg, gens + extra)
                assert got.shape[1] == want.shape[1], (label, k, len(extra))
                assert np.allclose(got.conj().T @ alg.gram @ got, np.eye(got.shape[1]),
                                   atol=1e-10), label
                assert span_equal(alg, got, want), (label, k, len(extra))
                assert generates(alg, gens + extra) == (want.shape[1] == alg.dim), label


def test_subalgebra_generate_and_span_equal():
    alg = multimatrix([(2, 1.0)])
    e01 = np.array([0, 1, 0, 0], dtype=complex)
    cols = subalgebra_generate(alg, [e01])
    assert cols.shape[1] == 4  # e01 and its star generate all of M2
    assert span_equal(alg, cols, np.eye(4, dtype=complex))
    diag = subalgebra_generate(alg, [np.array([1, 0, 0, -1], dtype=complex)])
    assert diag.shape[1] == 2


# -- actions -----------------------------------------------------------------------

def test_trivial_and_permutation_actions_validate():
    c3 = multimatrix([(1, 1 / 3)] * 3)
    z3 = cyclic(3)
    act = permutation_action(z3, c3, [[0, 1, 2], [2, 0, 1], [1, 2, 0]])
    res = validate_action(act)
    assert max(res.values()) < 1e-12
    res = validate_action(trivial_action(z3, c3))
    assert max(res.values()) < 1e-12


def test_ad_action_validates_and_bad_action_raises():
    m2 = multimatrix([(2, 1.0)])
    z2 = cyclic(2)
    sign = np.array([1, 0, 0, -1], dtype=complex)
    act = ad_action(z2, m2, np.stack([m2.unit, sign]))
    assert max(validate_action(act).values()) < 1e-12
    bad = GroupAction(z2, m2, np.stack([np.eye(4), 1.01 * np.eye(4)]))
    with pytest.raises(ActionInvalid):
        validate_action(bad)


def test_dual_action_has_full_orbit():
    act = dual_action(3)
    assert act.group.order == 3
    assert act.algebra.dim == 3
    assert max(validate_action(act).values()) < 1e-12
    # the nontrivial generator scales u_1 by a primitive cube root of unity
    omega = np.exp(2j * np.pi / 3)
    u1 = act.algebra.basis(1)
    assert np.allclose(act.apply(1, u1), omega * u1)


# -- crossed products ---------------------------------------------------------------

@pytest.fixture(scope="module")
def cp_m2():
    m2 = multimatrix([(2, 1.0)], label="M2")
    sign = np.array([1, 0, 0, -1], dtype=complex)
    act = ad_action(cyclic(2), m2, np.stack([m2.unit, sign]))
    return crossed_product(m2, act)


def test_crossed_product_group_unitaries(cp_m2):
    cp = cp_m2
    big = cp.algebra
    g = cp.group
    for a in range(g.order):
        ua = cp.u(a)
        assert np.allclose(big.mul(ua, big.star_of(ua)), big.unit)
        for b in range(g.order):
            assert np.allclose(big.mul(ua, cp.u(b)), cp.u(g.mul(a, b)))


def test_crossed_product_covariance_relation(cp_m2):
    cp = cp_m2
    big = cp.algebra
    act = cp.action
    rng = np.random.default_rng(3)
    x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    for g in range(cp.group.order):
        ug = cp.u(g)
        lhs = big.mul(big.mul(ug, cp.lift(x)), big.star_of(ug))
        assert np.allclose(lhs, cp.lift(act.apply(g, x)))


def test_crossed_product_trace_restricts(cp_m2):
    cp = cp_m2
    big = cp.algebra
    x = np.array([0.3, 0.1j, -0.1j, 0.7])
    assert abs(big.tr(cp.lift(x)) - cp.base.tr(x)) < 1e-12
    # off-identity sectors are trace free
    assert abs(big.tr(big.mul(cp.lift(x), cp.u(1)))) < 1e-12


def test_component_extraction_round_trip(cp_m2):
    cp = cp_m2
    rng = np.random.default_rng(5)
    parts = [rng.standard_normal(4) + 1j * rng.standard_normal(4) for _ in range(2)]
    total = sum(
        cp.algebra.mul(cp.lift(p), cp.u(g)) for g, p in enumerate(parts)
    )
    # b_i u_g sits at i * |G| + g, the layout group_index relies on
    for g, p in enumerate(parts):
        assert np.allclose(total.reshape(cp.base.dim, cp.group.order)[:, g], p)


def test_center_of_matrix_block_is_scalars():
    m2 = multimatrix([(2, 1.0)])
    z = center_basis(m2)
    assert z.shape[1] == 1
    c3 = multimatrix([(1, 0.5), (1, 0.3), (1, 0.2)])
    assert center_basis(c3).shape[1] == 3


@pytest.mark.parametrize(
    "blocks",
    [[(1, 1.0)], [(2, 1.0)], [(1, 0.25), (1, 0.75)], [(2, 0.5), (3, 0.3), (1, 0.2)]],
)
def test_decompose_recovers_blocks(blocks):
    alg = multimatrix(blocks)
    found = multimatrix_decompose(alg)
    want = sorted(blocks, key=lambda b: (b[0], b[1]), reverse=True)
    assert [n for n, _ in found] == [n for n, _ in want]
    assert np.allclose([a for _, a in found], [a for _, a in want], atol=1e-9)


@pytest.mark.parametrize("cond", [1e2, 3e2, 1e3])
def test_decompose_under_a_non_unitary_basis_change_is_right_or_refuses(cond):
    # S = U diag(1 .. 1/cond) V: returned blocks must be right, never a
    # weight off by more than 1e-9; at cond 3e2 every draw must be answered
    base = multimatrix([(2, 0.75), (1, 0.25)])
    right = valid = 0
    for seed in range(100, 112):
        rng = np.random.default_rng(seed)
        u, v = random_unitary(rng, 5), random_unitary(rng, 5)
        alg = in_basis(base, u @ np.diag(np.logspace(0, -np.log10(cond), 5)) @ v)
        if not validate(alg).passed:
            continue
        valid += 1
        try:
            found = multimatrix_decompose(alg)
        except NotSemisimple:
            continue
        assert [n for n, _ in found] == [2, 1], (seed, found)
        assert np.allclose([a for _, a in found], [0.75, 0.25], rtol=0, atol=1e-9), (seed, found)
        right += 1
    assert valid == 12
    if cond <= 3e2:
        assert right == 12


def test_decompose_certifies_each_central_idempotent(monkeypatch):
    # eigenvectors moved by 1e-6 give idempotents off by about as much: the
    # certificate refuses them instead of returning their traces
    split = constructions.spectral_split

    def moved(m):
        vec, bounds = split(m)
        return vec + 1e-6 * np.random.default_rng(0).standard_normal(vec.shape), bounds

    monkeypatch.setattr(constructions, "spectral_split", moved)
    with pytest.raises(NotSemisimple, match="central idempotent residual"):
        multimatrix_decompose(multimatrix([(2, 0.75), (1, 0.25)]))


def test_split_without_a_clear_gap_raises(monkeypatch):
    # no gap exceeds ten spectral radii, so every draw is one cluster
    monkeypatch.setattr(_linalg, "CLUSTER_GAP", 10.0)
    with pytest.raises(NotSemisimple, match="no draw split the center into 2 clusters"):
        multimatrix_decompose(multimatrix([(2, 0.75), (1, 0.25)]))
    with pytest.raises(RankAmbiguous, match="no clear spectral gap"):
        characters(cyclic(3))


def test_decompose_is_deterministic():
    alg = rotated(multimatrix([(2, 0.5), (1, 0.3), (1, 0.2)]), np.random.default_rng(4))
    assert multimatrix_decompose(alg) == multimatrix_decompose(alg)


def test_crossed_c2_by_flip_is_m2(cp_m2):
    c2 = multimatrix([(1, 0.5), (1, 0.5)])
    act = permutation_action(cyclic(2), c2, [[0, 1], [1, 0]])
    cp = crossed_product(c2, act)
    blocks = multimatrix_decompose(cp.algebra)
    assert blocks == [(2, pytest.approx(1.0))]
    # while the fixed-point crossed product stays a direct sum
    blocks2 = multimatrix_decompose(cp_m2.algebra)
    assert [n for n, _ in blocks2] == [2, 2]


def test_dual_crossed_product_is_full_matrix_algebra():
    act = dual_action(3)
    cp = crossed_product(act.algebra, act)
    blocks = multimatrix_decompose(cp.algebra)
    assert blocks == [(3, pytest.approx(1.0))]


# -- character-scaled generating sets ----------------------------------------------

def test_scaled_generating_set_satisfies_eigenvalue_relations():
    c2 = multimatrix([(1, 0.5), (1, 0.5)])
    z2 = cyclic(2)
    act = permutation_action(z2, c2, [[0, 1], [1, 0]])
    xs = [c2.basis(0), c2.basis(1)]
    pairs = scaled_generating_set(xs, act)
    assert pairs
    assert scaling_residual(pairs, act) < 1e-12
    ys = [y for y, _ in pairs]
    orbit = [act.apply(g, x) for x in xs for g in range(2)]
    assert span_equal(
        c2, subalgebra_generate(c2, ys), subalgebra_generate(c2, xs + orbit)
    )


def test_scaled_generating_set_needs_abelian():
    alg = multimatrix([(1, 1.0)])
    act = trivial_action(symmetric_3(), alg)
    with pytest.raises(NotAbelian):
        scaled_generating_set([alg.unit], act)


def test_group_central_family_is_orthonormal_and_central():
    g = cyclic(4)
    ga = group_algebra(g)
    fam = group_central_family(g)
    assert fam.shape == (16, 4)
    gram = fam.conj().T @ (ref.gram(ga) @ fam)
    assert np.max(np.abs(gram - np.eye(4))) < 1e-12
    for a in range(4):
        ua = ga.basis(a)
        assert np.max(np.abs(ref.act_left(ga, ua) @ fam - ref.act_right(ga, ua) @ fam)) < 1e-12
    assert np.max(np.abs(commutator_span(ga, np.eye(4), fam))) < 1e-12
