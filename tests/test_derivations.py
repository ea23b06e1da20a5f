import itertools

import numpy as np
import pytest

from steinlab import (
    DenseLimitExceeded,
    FDAlgebra,
    NotSubalgebra,
    ad_action,
    apply_pair,
    average_scaling,
    central_projection_element,
    central_vectors,
    commutator_span,
    covariance_defect,
    crossed_product,
    cyclic,
    decompose_vanishing,
    derivation_space,
    dual_action,
    extend_vanishing,
    group_algebra,
    leibniz_residual,
    matrix_units,
    multimatrix,
    permutation_action,
    phi_x,
    relative_derivations,
    restrict_component,
    restricted_norm,
    scaling_conjugation,
    symmetric_3,
    trivial_action,
    SteinlabError,
    UnitsInvalid,
    validate,
    vn_dimension,
)
from steinlab.derivations import leibniz_system

import dense_reference as ref

M2 = multimatrix([(2, 1.0)], label="M2")


def in_basis(alg: FDAlgebra, s: np.ndarray, label: str = "") -> FDAlgebra:
    """The same algebra in the basis b'_i = sum_a s[a, i] b_a, s invertible."""
    sinv = np.linalg.inv(s)
    mult = np.einsum("ai,bj,abc,kc->ijk", s, s, alg.mult, sinv)
    star = sinv @ alg.star @ np.conj(s)
    return FDAlgebra(alg.dim, mult, star, sinv @ alg.unit, alg.trace @ s, label=label)


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    return np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]


def rotated(alg: FDAlgebra, rng: np.random.Generator) -> FDAlgebra:
    """The same algebra in a random unitary change of basis, so that the
    structure constants have no zero pattern."""
    return in_basis(alg, random_unitary(rng, alg.dim), label=alg.label + " rotated")


def einsum_leibniz_system(alg: FDAlgebra) -> np.ndarray:
    """Reference: the dense Leibniz system from three 5-index einsum terms."""
    n, nn = alg.dim, alg.dim**2
    lops = np.stack([ref.act_left(alg, alg.basis(i)) for i in range(n)])
    rops = np.stack([ref.act_right(alg, alg.basis(i)) for i in range(n)])
    eye_n, eye_nn = np.eye(n), np.eye(nn)
    t1 = np.einsum("ijk,pq->pijqk", alg.mult, eye_nn)
    t2 = np.einsum("ipq,jk->pijqk", lops, eye_n)
    t3 = np.einsum("jpq,ik->pijqk", rops, eye_n)
    return (t1 - t2 - t3).reshape(nn * n * n, nn * n)


@pytest.fixture(scope="module")
def cp_c2():
    c2 = multimatrix([(1, 0.5), (1, 0.5)], label="C^2")
    act = permutation_action(cyclic(2), c2, [[0, 1], [1, 0]])
    return crossed_product(c2, act)


@pytest.fixture(scope="module")
def cp_m2():
    sign = np.array([1, 0, 0, -1], dtype=complex)
    act = ad_action(cyclic(2), M2, np.stack([M2.unit, sign]))
    return crossed_product(M2, act)


def test_derivation_space_satisfies_leibniz():
    space = derivation_space(M2)
    assert space.rank > 0
    assert np.all(leibniz_residual(space.algebra, space.basis) < 1e-9)


def test_commutator_derivations_live_in_the_space():
    space = derivation_space(M2)
    rng = np.random.default_rng(2)
    xi = rng.standard_normal(M2.dim**2) + 1j * rng.standard_normal(M2.dim**2)
    d = commutator_span(M2, np.eye(M2.dim), xi[:, None])[:, :, 0].T
    assert leibniz_residual(M2, d) < 1e-9
    assert ref.distance(space, d) < 1e-8


@pytest.mark.parametrize(
    "alg",
    [M2, multimatrix([(1, 0.5), (1, 0.5)]), group_algebra(cyclic(3))],
    ids=["M2", "C^2", "C[Z/3]"],
)
def test_inner_derivations_exhaust_the_space(alg):
    # every commutator derivation [., xi] lies in the solved space, and
    # they span a space of its rank
    full = derivation_space(alg)
    inner = np.stack([ref.commutator_derivation(alg, xi) for xi in np.eye(alg.dim**2)])
    assert max(ref.distance(full, d) for d in inner) <= 1e-8
    assert np.linalg.matrix_rank(inner.reshape(len(inner), -1)) == full.rank


def test_linear_rank_counts_non_central_directions():
    # the commutator map kills exactly the bimodule-central vectors
    for alg in (M2, multimatrix([(1, 0.5), (1, 0.5)])):
        space = derivation_space(alg)
        n_central = central_vectors(alg, np.eye(alg.dim, dtype=complex)).shape[1]
        assert space.rank == alg.dim * alg.dim - n_central


def test_central_vectors_of_diagonal_algebra():
    c3 = multimatrix([(1, 0.5), (1, 0.3), (1, 0.2)])
    q = central_vectors(c3, np.eye(3, dtype=complex))
    assert q.shape[1] == 3
    gram = q.conj().T @ (ref.gram(c3) @ q)
    assert np.max(np.abs(gram - np.eye(3))) < 1e-10


def test_relative_derivations_require_a_subalgebra():
    space = derivation_space(M2)
    e01 = np.zeros((4, 1), dtype=complex)
    e01[1, 0] = 1.0
    with pytest.raises(NotSubalgebra):
        relative_derivations(space, e01)


def test_relative_derivations_vanish_on_the_subalgebra(cp_m2):
    space = derivation_space(cp_m2.algebra)
    van = relative_derivations(space, cp_m2.embed_group, check_subalgebra=False)
    assert 0 < van.rank < space.rank
    assert np.all(restricted_norm(van.algebra, van.basis, cp_m2.embed_group) < 1e-9)
    assert np.all(leibniz_residual(van.algebra, van.basis) < 1e-9)


def test_extend_then_restrict_is_identity(cp_c2):
    base_space = derivation_space(cp_c2.base)
    grp = cp_c2.group
    for d in base_space.basis:
        for h in range(grp.order):
            ext = extend_vanishing(cp_c2, d, h)
            assert leibniz_residual(cp_c2.algebra, ext) < 1e-9
            assert restricted_norm(cp_c2.algebra, ext, cp_c2.embed_group) < 1e-9
            back = restrict_component(cp_c2, ext, grp.identity, h)
            assert np.max(np.abs(back - d)) < 1e-10


def test_vanishing_derivations_reassemble_from_components(cp_m2):
    van = relative_derivations(derivation_space(cp_m2.algebra), cp_m2.embed_group,
                               check_subalgebra=False)
    components, residuals = decompose_vanishing(cp_m2, van.basis)
    assert residuals.max(initial=0.0) < 1e-9
    assert len(components) == van.rank
    assert all(len(row) == cp_m2.group.order for row in components)


def test_scaling_conjugations_form_a_group_action(cp_m2):
    space = derivation_space(cp_m2.algebra)
    d = space.basis[0]
    grp = cp_m2.group
    ident = scaling_conjugation(cp_m2, grp.identity, d)
    assert np.max(np.abs(ident - d)) < 1e-12
    for g in range(grp.order):
        for h in range(grp.order):
            lhs = scaling_conjugation(cp_m2, g, scaling_conjugation(cp_m2, h, d))
            rhs = scaling_conjugation(cp_m2, grp.mul(h, g), d)
            assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_average_scaling_is_covariant_and_vanishes(cp_m2):
    space = derivation_space(cp_m2.algebra)
    avgs = average_scaling(cp_m2, space.basis[:3])
    assert covariance_defect(cp_m2, avgs).max() < 1e-9
    assert np.all(leibniz_residual(cp_m2.algebra, avgs) < 1e-9)
    assert np.all(restricted_norm(cp_m2.algebra, avgs, cp_m2.embed_group) < 1e-8)


def test_covariance_detects_both_directions(cp_m2):
    base_space = derivation_space(cp_m2.base)
    ext = extend_vanishing(cp_m2, base_space.basis[0], 1)
    assert covariance_defect(cp_m2, ext) <= 1e-8
    # an inner derivation by a group unitary is not covariant and does not
    # vanish on the group algebra
    calg = cp_m2.algebra
    xi = np.kron(cp_m2.u(1), calg.unit)
    d = commutator_span(calg, np.eye(calg.dim), xi[:, None])[:, :, 0].T
    assert covariance_defect(cp_m2, d) > 1e-3
    assert restricted_norm(calg, d, cp_m2.embed_group) > 1e-3


def _coset_legs(cp, g, h):
    """Leg masks (left, right) of the sector L^2(N)(u_g (x) u_h^op)."""
    return cp.group_index == g, cp.group_index == h


def test_coset_masks_partition_the_bimodule(cp_m2):
    grp = cp_m2.group
    total = np.zeros(cp_m2.algebra.dim**2)
    for g in range(grp.order):
        for h in range(grp.order):
            left, right = _coset_legs(cp_m2, g, h)
            mask = np.outer(left, right).ravel()
            assert np.array_equal(mask, ref.coset_mask(cp_m2, g, h))
            total = total + mask
    assert np.allclose(total, 1.0)


def test_coset_projection_matrix_is_idempotent(cp_c2):
    # the sector projection is the kron pair of its diagonal leg masks
    left, right = _coset_legs(cp_c2, 1, 0)
    pair = (np.diag(left.astype(float)), np.diag(right.astype(float)))
    m = np.kron(*pair)
    assert np.allclose(m @ m, m)
    v = np.arange(cp_c2.algebra.dim**2, dtype=complex)[:, None]
    assert np.allclose(apply_pair(pair, v), m @ v)
    assert np.allclose(apply_pair(pair, apply_pair(pair, v)), m @ v)


def test_central_projection_element_of_m2():
    blocks = [(2, 1.0)]
    p, pairs = central_projection_element(M2, matrix_units(blocks))
    # the kron pairs sum to left multiplication by p
    left_p = sum(np.kron(a, b) for a, b in pairs)
    units = matrix_units(blocks)[0]
    want = sum(ref.left_pair(M2, units[j, k], units[k, j]) / 2 for j in range(2) for k in range(2))
    assert np.max(np.abs(left_p - want)) < 1e-12
    # left action agrees with the orthogonal projection onto central vectors
    q = central_vectors(M2, np.eye(4, dtype=complex))
    w = ref.gram(M2)
    proj = q @ (q.conj().T @ w)
    assert np.max(np.abs(left_p - proj)) < 1e-10
    # idempotent, self-adjoint for the GNS form, trace 1/4
    assert np.max(np.abs(left_p @ left_p - left_p)) < 1e-10
    assert np.max(np.abs(w @ left_p - left_p.conj().T @ w)) < 1e-10
    trace_val = np.conj(np.kron(M2.unit, M2.unit)) @ (w @ p)
    assert abs(trace_val - 0.25) < 1e-12


def test_central_projection_element_checks_the_matrix_units():
    m2c_blocks = [(2, 0.6), (1, 0.4)]
    alg = multimatrix(m2c_blocks)
    units = matrix_units(m2c_blocks)
    p, pairs = central_projection_element(alg, units)
    assert len(pairs) == 5
    swapped = [units[0].transpose(1, 0, 2), units[1]]  # e_jk <-> e_kj breaks e_jk e_kl = e_jl
    mixed = [units[0][::-1], units[1]]  # e_11 <-> e_21 breaks the star relation
    bad = {
        "unit array must be square": [units[0][:, :1], units[1]],
        "star does not transpose": mixed,
        "units do not sum to the identity": [units[0]],
        "matrix unit relations fail": swapped,
    }
    for message, case in bad.items():
        with pytest.raises(UnitsInvalid, match=message):
            central_projection_element(alg, case)


def test_derivation_metric_and_coefficients():
    space = derivation_space(M2)
    d = space.basis[1]
    coef = np.array([ref.pair(M2, d, b) for b in space.basis])
    rebuilt = np.einsum("r,rpj->pj", coef, space.basis)
    assert np.max(np.abs(rebuilt - d)) < 1e-9


def test_zero_derivation_is_contained():
    space = derivation_space(M2)
    zero = np.zeros((M2.dim**2, M2.dim))
    assert ref.distance(space, zero) <= 1e-8
    assert leibniz_residual(M2, zero) == 0.0


SMALL = pytest.mark.parametrize(
    "alg",
    [
        M2,
        multimatrix([(2, 2 / 3), (1, 1 / 3)]),
        group_algebra(cyclic(3)),
        rotated(multimatrix([(2, 0.6), (1, 0.4)]), np.random.default_rng(4)),
        crossed_product(
            M2, ad_action(cyclic(2), M2, np.stack([M2.unit, np.array([1, 0, 0, -1])]))
        ).algebra,
    ],
    ids=["M2", "M2+C", "C[Z/3]", "M2+C rotated", "M2 x| Z/2"],
)


@SMALL
def test_sparse_leibniz_system_matches_einsum_formula(alg):
    # the system is in GNS-orthonormal leg coordinates: the raw formula
    # with (T (x) T) on the legs of N of its rows and (T^-1 (x) T^-1) on
    # those of its unknowns, the argument axes left alone
    sys_ = leibniz_system(alg)
    dense = np.zeros(sys_.shape, dtype=complex)
    np.add.at(dense, (sys_.rows, sys_.cols), sys_.vals)
    n = alg.dim
    tt = np.kron(alg.onb_factor, alg.onb_factor)
    want = np.kron(tt, np.eye(n * n)) @ einsum_leibniz_system(alg) @ np.kron(np.linalg.inv(tt), np.eye(n))
    assert np.max(np.abs(dense - want)) < 1e-13


@SMALL
def test_derivation_basis_is_orthonormal_for_the_pairing(alg):
    space = derivation_space(alg)
    gram = np.array([[ref.pair(alg, d1, d2) for d2 in space.basis] for d1 in space.basis])
    assert np.max(np.abs(gram - np.eye(space.rank))) < 1e-12


def test_derivation_space_above_dim_11_in_matrix_units():
    blocks = [(3, 0.5), (2, 0.3), (1, 0.2)]
    alg = multimatrix(blocks, label="M3+M2+C")
    assert alg.dim == 14
    value = vn_dimension(phi_x(derivation_space(alg))).value
    assert abs(value - (1 - sum(a * a / (n * n) for n, a in blocks))) < 1e-10


def test_a_rescaled_basis_vector_leaves_the_dimension():
    # b_1 -> 1e-6 b_1 in M2+C: the GNS Gram spans 1e-12, which the kernel,
    # solved in GNS-orthonormal coordinates, never sees
    alg = in_basis(multimatrix([(2, 0.5), (1, 0.5)]), np.diag([1, 1e-6, 1, 1, 1]).astype(complex))
    value = vn_dimension(phi_x(derivation_space(alg))).value
    assert abs(value - 0.6875) < 1e-10


@pytest.mark.parametrize("cond", [1e2, 3e2])
def test_a_non_unitary_basis_change_gives_the_dimension_or_a_typed_error(cond):
    # S = U diag(1 .. 1/cond) V: a dimension that is returned must be right
    base = multimatrix([(2, 0.75), (1, 0.25)])
    for seed in range(100, 112):
        rng = np.random.default_rng(seed)
        u, v = random_unitary(rng, 5), random_unitary(rng, 5)
        alg = in_basis(base, u @ np.diag(np.logspace(0, -np.log10(cond), 5)) @ v)
        try:
            value = vn_dimension(phi_x(derivation_space(alg))).value
        except SteinlabError:
            continue
        assert abs(value - 0.796875) < 1e-10, (seed, value)


def test_unstructured_basis_hits_the_dense_limit_at_dim_12():
    alg = rotated(multimatrix([(3, 0.4), (1, 0.3), (1, 0.2), (1, 0.1)]), np.random.default_rng(9))
    assert alg.dim == 12
    assert validate(alg).passed
    with pytest.raises(DenseLimitExceeded, match="exceeds the dense limit of 1600"):
        derivation_space(alg)


# -- the kron-pair bimodule layer against the dense reference formulas ----------

def _c3_s3():
    c3 = multimatrix([(1, 1 / 3)] * 3, label="C^3")
    s3 = symmetric_3()
    # the elements of S3 are the permutations of (0, 1, 2), in table order
    perms = [list(p) for p in itertools.permutations(range(3))]
    return crossed_product(c3, permutation_action(s3, c3, perms))


def _m2c_z2():
    m2c = multimatrix([(2, 2 / 3), (1, 1 / 3)])
    sign = np.array([1, 0, 0, -1, 1], dtype=complex)
    return crossed_product(m2c, ad_action(cyclic(2), m2c, np.stack([m2c.unit, sign])))


CROSSED = {
    "C^2 x| Z/2": lambda: crossed_product(
        multimatrix([(1, 0.5), (1, 0.5)]),
        permutation_action(cyclic(2), multimatrix([(1, 0.5), (1, 0.5)]), [[0, 1], [1, 0]]),
    ),
    "M2+C x| Z/2 (ad)": _m2c_z2,
    "C[Z/3] x| Z/3 (dual)": lambda: crossed_product(dual_action(3).algebra, dual_action(3)),
    "C^3 x| S3": _c3_s3,
}


@pytest.fixture(scope="module", params=list(CROSSED))
def crossed(request):
    """A crossed product with derivations of A and of A x| G: the basis of
    Der(A) and, for A x| G, a few basis elements plus a random combination
    and a random matrix that is no derivation."""
    cp = CROSSED[request.param]()
    base = derivation_space(cp.base).basis
    space = derivation_space(cp.algebra)
    rng = np.random.default_rng(11)
    mix = np.einsum("r,rpj->pj", rng.standard_normal(space.rank), space.basis)
    noise = rng.standard_normal(space.basis.shape[1:]) + 1j * rng.standard_normal(space.basis.shape[1:])
    big = np.concatenate([space.basis[:3], mix[None], noise[None]])
    return cp, base, big


def test_extend_vanishing_matches_dense_reference(crossed):
    cp, base, _ = crossed
    for h in range(cp.group.order):
        got = extend_vanishing(cp, base, h)
        for d, ext in zip(base, got):
            assert np.max(np.abs(ext - ref.extend_vanishing(cp, d, h))) < 1e-12


def test_restrict_component_matches_dense_reference(crossed):
    cp, _, big = crossed
    k = cp.group.order
    for g in range(k):
        for h in range(k):
            got = restrict_component(cp, big, g, h)
            for d, comp in zip(big, got):
                assert np.max(np.abs(comp - ref.restrict_component(cp, d, g, h))) < 1e-12


def test_scaling_conjugation_matches_dense_reference(crossed):
    cp, _, big = crossed
    for g in range(cp.group.order):
        got = scaling_conjugation(cp, g, big)
        for d, conj in zip(big, got):
            assert np.max(np.abs(conj - ref.scaling_conjugation(cp, g, d))) < 1e-12
    defects = covariance_defect(cp, big)
    assert np.allclose(defects, [ref.covariance_defect(cp, d) for d in big], rtol=0, atol=1e-12)


def test_leibniz_residual_matches_dense_reference(crossed):
    cp, _, big = crossed
    alg = cp.algebra
    # one derivation at a time, and the whole stack at once
    for d, stacked in zip(big, leibniz_residual(alg, big)):
        for got in (leibniz_residual(alg, d), stacked):
            assert abs(got - ref.leibniz_residual(alg, d)) < 1e-12 * max(1.0, got)


def test_restricted_norm_matches_dense_reference(crossed):
    cp, _, big = crossed
    alg, cols = cp.algebra, cp.embed_group
    for d, stacked in zip(big, restricted_norm(alg, big, cols)):
        want = max(ref.norm(alg, d @ c) for c in cols.T)
        for got in (restricted_norm(alg, d, cols), stacked):
            assert abs(got - want) < 1e-12 * max(1.0, got)


def test_commutator_span_matches_dense_reference(crossed):
    cp, _, _ = crossed
    alg = cp.algebra
    nn = alg.dim**2
    rng = np.random.default_rng(12)
    xs = rng.standard_normal((alg.dim, 3)) + 1j * rng.standard_normal((alg.dim, 3))
    xis = rng.standard_normal((nn, 2)) + 1j * rng.standard_normal((nn, 2))
    got = commutator_span(alg, xs, xis)
    for x, block in zip(xs.T, got):
        want = (ref.act_left(alg, x) - ref.act_right(alg, x)) @ xis
        assert np.max(np.abs(block - want)) < 1e-12
    # the derivation [., xi] is the span at the basis of A
    inner = commutator_span(alg, np.eye(alg.dim), xis[:, :1])[:, :, 0].T
    assert np.max(np.abs(inner - ref.commutator_derivation(alg, xis[:, 0]))) < 1e-12


def test_commutator_span_of_a_kron_pair_matches_its_columns():
    rng = np.random.default_rng(13)
    for alg in (M2, multimatrix([(2, 0.6), (1, 0.4)])):
        n = alg.dim
        xs = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
        va, vb = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) for _ in "ab")
        got = commutator_span(alg, xs, (va, vb))
        assert np.max(np.abs(got - commutator_span(alg, xs, np.kron(va, vb)))) < 1e-12

