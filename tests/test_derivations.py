import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from steinlab import (
    DenseLimitExceeded,
    FDAlgebra,
    InexactAlgebra,
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
    dihedral_4,
    derivation_space,
    dual_action,
    extend_vanishing,
    group_algebra,
    inner_derivation_module,
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
from steinlab import _linalg, algebra as algebra_module
from steinlab.reports import CORPUS, ExperimentSpec
from steinlab._linalg import nullspace
from steinlab import derivations
from steinlab.derivations import leibniz_system, whiten

import dense_reference as ref
from test_algebra import _shipped_algebras

M2 = multimatrix([(2, 1.0)], label="M2")


def in_basis(alg: FDAlgebra, s: np.ndarray, label: str = "") -> FDAlgebra:
    """The same algebra in the basis b'_i = sum_a s[a, i] b_a, s invertible."""
    sinv = np.linalg.inv(s)
    mult = np.einsum("ai,bj,abc,kc->ijk", s, s, alg.mult, sinv, optimize=True)
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


def test_mult_matrices_of_a_stack_are_the_per_element_ones(cp_m2):
    # a (2, 3, dim) stack gives one matrix per element; column j of each is
    # the product with b_j, on the left for left_mult and the right for right_mult
    rng = np.random.default_rng(5)
    rot = rotated(multimatrix([(2, 2 / 3), (1, 1 / 3)], label="M2+C"), rng)
    for alg in (cp_m2.algebra, rot):
        xs = rng.standard_normal((2, 3, alg.dim)) + 1j * rng.standard_normal((2, 3, alg.dim))
        lefts, rights = alg.left_mult(xs), alg.right_mult(xs)
        assert lefts.shape == rights.shape == (2, 3, alg.dim, alg.dim)
        for idx in np.ndindex(2, 3):
            x = xs[idx]
            assert alg.left_mult(x).shape == alg.right_mult(x).shape == (alg.dim, alg.dim)
            assert np.max(np.abs(lefts[idx] - alg.left_mult(x))) < 1e-13
            assert np.max(np.abs(rights[idx] - alg.right_mult(x))) < 1e-13
            for j in range(alg.dim):
                b = alg.basis(j)
                assert np.max(np.abs(lefts[idx][:, j] - alg.mul(x, b))) < 1e-13
                assert np.max(np.abs(rights[idx][:, j] - alg.mul(b, x))) < 1e-13


def test_derivation_space_satisfies_leibniz():
    space = derivation_space(M2)
    assert space.rank > 0
    assert np.all(leibniz_residual(space.algebra, space.columns(slice(None))) < 1e-9)


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
    assert np.all(restricted_norm(van.algebra, van.columns(slice(None)), cp_m2.embed_group) < 1e-9)
    assert np.all(leibniz_residual(van.algebra, van.columns(slice(None))) < 1e-9)


def test_relative_derivations_hold_no_dense_kernel():
    # C^3 x| S3: 306 derivations on 5832 unknowns, 27 MiB as one dense
    # kernel, which the constraints, the combinations and the result never
    # form
    cp = _c3_s3()
    space = derivation_space(cp.algebra)
    dense = 16 * space.kernel.shape[0] * space.kernel.shape[1]
    tracemalloc.start()
    try:
        van = relative_derivations(space, cp.embed_group, check_subalgebra=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert van.rank == 36
    assert peak < 4 * 2**20 < dense / 6
    assert np.all(restricted_norm(van.algebra, van.columns(slice(None)), cp.embed_group) < 1e-9)


def test_phi_x_at_other_arguments_holds_no_dense_kernel():
    # phi_X of C^3 x| S3 for X its generating basis elements, read through
    # the argument map on the kernel's entries: the dense kernel (27 MiB)
    # is never formed
    cp = _c3_s3()
    alg = cp.algebra
    space = derivation_space(alg)
    gens = np.eye(alg.dim, dtype=complex)[:, alg.generating_indices]
    dense = 16 * space.kernel.shape[0] * space.kernel.shape[1]
    tracemalloc.start()
    try:
        sub = phi_x(space, gens)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert gens.shape[1] < alg.dim
    assert peak < 4 * 2**20 < dense / 6
    assert abs(vn_dimension(sub).value - vn_dimension(phi_x(space)).value) < 1e-12


def _cz3_dual():
    """The corpus's C[Z/3] x| Z/3 under the dual action: its Leibniz system
    is nine 162 x 81 blocks."""
    spec = ExperimentSpec.from_json(next(s for s in CORPUS if s["label"] == "C[Z/3] | Z/3 | dual"))
    return crossed_product(spec.algebra, spec.action).algebra


def test_derivation_space_holds_memory_in_proportion_to_its_factors():
    # the nine blocks are 3 MiB densified together, where their kept Vh take
    # 0.9 MiB; each is densified and factored in its own chunk
    alg = _cz3_dual()
    tracemalloc.start()
    try:
        space = derivation_space(alg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert space.rank == 72
    assert peak < 3 * 2**20


def test_guard_counts_what_a_chunked_solve_holds(monkeypatch):
    # the nine blocks are one tall stack of nine chunks: the traced peak of
    # the solve stays within the guard's count of its shapes, and a limit
    # one byte lower is refused before any block is factored
    alg = _cz3_dual()
    system = leibniz_system(alg, alg.generating_indices)
    calls, count = [], _linalg._dense_bytes

    def spy(*args):
        calls.append(args)
        return count(*args)

    monkeypatch.setattr(_linalg, "_dense_bytes", spy)
    tracemalloc.start()
    try:
        kernel = nullspace(system)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    [(shapes, held, span)] = calls
    assert shapes == [[9, 162, 81]] and not span
    assert _linalg._chunks(shapes, held, span)[3] == [1]
    assert kernel.shape[1] == 72
    need = count(shapes, held, span)
    assert peak <= need

    def refuse(*args, **kwargs):
        raise AssertionError("an SVD ran")

    monkeypatch.setattr(_linalg, "batched_svd", refuse)
    monkeypatch.setattr(_linalg, "DENSE_LIMIT", need - 1)
    with pytest.raises(DenseLimitExceeded, match=f"need {need} bytes"):
        nullspace(system)


def test_leibniz_residual_in_slabs_is_the_whole_system_residual(monkeypatch):
    # the whole system's rows applied densely, and a budget of one row of
    # basis indices per slab: each row is the same sum in the same order
    cp = _c3_s3()
    alg = cp.algebra
    mats = np.concatenate([derivation_space(alg).columns(slice(2)),
                           np.random.default_rng(15).standard_normal((2, 18 * 18, 18)) + 0j])
    system = leibniz_system(alg, np.arange(alg.dim))
    want = []
    for x in whiten(alg, mats).reshape(4, 18**3):
        prod = system.vals * x[system.cols]
        rows = sum(part * np.bincount(system.rows, f(prod), system.shape[0])
                   for part, f in ((1, np.real), (1j, np.imag)))
        want.append(np.linalg.norm(rows.reshape(18 * 18, 18 * 18), axis=0).max())
    got = leibniz_residual(alg, mats)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(want)
    monkeypatch.setattr(derivations, "QR_CHUNK", 1)
    assert np.array_equal(leibniz_residual(alg, mats), got)
    assert np.array_equal(leibniz_residual(alg, mats[1:3].reshape(2, 1, 18 * 18, 18)),
                          got[1:3, None])


def test_extend_then_restrict_is_identity(cp_c2):
    base_space = derivation_space(cp_c2.base)
    grp = cp_c2.group
    for d in base_space.columns(slice(None)):
        for h in range(grp.order):
            ext = extend_vanishing(cp_c2, d, h)
            assert leibniz_residual(cp_c2.algebra, ext) < 1e-9
            assert restricted_norm(cp_c2.algebra, ext, cp_c2.embed_group) < 1e-9
            back = restrict_component(cp_c2, ext, grp.identity, h)
            assert np.max(np.abs(back - d)) < 1e-10


def test_vanishing_derivations_reassemble_from_components(cp_m2):
    van = relative_derivations(derivation_space(cp_m2.algebra), cp_m2.embed_group,
                               check_subalgebra=False)
    components, residuals = decompose_vanishing(cp_m2, van.columns(slice(None)))
    assert residuals.max(initial=0.0) < 1e-9
    assert len(components) == van.rank
    assert all(len(row) == cp_m2.group.order for row in components)


def test_scaling_conjugations_form_a_group_action(cp_m2):
    space = derivation_space(cp_m2.algebra)
    d = space.columns(slice(None))[0]
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
    avgs = average_scaling(cp_m2, space.columns(slice(None))[:3])
    assert covariance_defect(cp_m2, avgs).max() < 1e-9
    assert np.all(leibniz_residual(cp_m2.algebra, avgs) < 1e-9)
    assert np.all(restricted_norm(cp_m2.algebra, avgs, cp_m2.embed_group) < 1e-8)


def test_covariance_detects_both_directions(cp_m2):
    base_space = derivation_space(cp_m2.base)
    ext = extend_vanishing(cp_m2, base_space.columns(slice(None))[0], 1)
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


def test_apply_pair_is_the_kron_matmul_for_monomial_and_dense_factors():
    # monomial factors (a gather) are the matmul exactly, a rectangular leg,
    # a zero row and an argument factor included; a dense factor is matmul
    rng = np.random.default_rng(16)
    phase = np.diag([1j, 2.0, -0.5])[[2, 0, 1]]
    perm = np.eye(3)[[1, 2, 0]]
    dense = rng.standard_normal((3, 3))
    cut = np.eye(3)[[2, 0]]
    zero_row = phase * [[1], [0], [1]]
    arg_mono = np.eye(4)[[3, 1, 0, 2]] * [1, -1j, 2, 1]
    arg_dense = rng.standard_normal((4, 2))
    for v in (rng.standard_normal((2, 9, 4)), rng.standard_normal((9, 4)) + 1j):
        for factors in [(phase, perm), (phase, None), (None, perm), (perm, phase), (dense, perm),
                        (cut, perm), (None, cut), (zero_row, cut), (phase, perm, arg_mono),
                        (cut, zero_row, arg_mono), (phase, None, arg_dense),
                        (dense, cut, arg_mono)]:
            want = np.kron(*(np.eye(3) if f is None else f for f in factors[:2])) @ v
            if len(factors) == 3:
                want = want @ factors[2]
            got = apply_pair(factors, v)
            assert got.shape == want.shape and got.dtype == want.dtype
            if not any(f is dense or f is arg_dense for f in factors):
                assert np.array_equal(got, want)
            assert np.max(np.abs(got - want)) < 1e-14


def test_central_projection_element_of_m2():
    blocks = [(2, 1.0)]
    p, stacks = central_projection_element(M2, matrix_units(blocks))
    # the krons of the two stacks sum to left multiplication by p
    left_p = sum(np.kron(a, b) for a, b in zip(*stacks))
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
    p, (lefts, rights) = central_projection_element(alg, units)
    assert lefts.shape == rights.shape == (5, alg.dim, alg.dim)
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
    basis = derivation_space(M2).columns(slice(None))
    d = basis[1]
    coef = np.array([ref.pair(M2, d, b) for b in basis])
    rebuilt = np.einsum("r,rpj->pj", coef, basis)
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
    sys_ = leibniz_system(alg, np.arange(alg.dim))
    dense = np.zeros(sys_.shape, dtype=complex)
    np.add.at(dense, (sys_.rows, sys_.cols), sys_.vals)
    n = alg.dim
    tt = np.kron(alg.onb_factor, alg.onb_factor)
    want = np.kron(tt, np.eye(n * n)) @ einsum_leibniz_system(alg) @ np.kron(np.linalg.inv(tt), np.eye(n))
    assert np.max(np.abs(dense - want)) < 1e-13


@SMALL
def test_cut_leibniz_system_is_the_full_one_on_the_rows_of_s(alg):
    # equation (p, i, j) with i = rows[s] sits at row (p * |S| + s) * n + j
    n, rows = alg.dim, alg.generating_indices
    full, cut = leibniz_system(alg, np.arange(alg.dim)), leibniz_system(alg, rows)
    assert cut.shape == (n * n * rows.size * n, n**3)
    dense_full = np.zeros(full.shape, dtype=complex)
    np.add.at(dense_full, (full.rows, full.cols), full.vals)
    dense_cut = np.zeros(cut.shape, dtype=complex)
    np.add.at(dense_cut, (cut.rows, cut.cols), cut.vals)
    want = dense_full.reshape(n * n, n, n, n**3)[:, rows].reshape(cut.shape)
    assert np.array_equal(dense_cut, want)


@SMALL
def test_derivation_basis_is_orthonormal_for_the_pairing(alg):
    basis = derivation_space(alg).columns(slice(None))
    gram = np.array([[ref.pair(alg, d1, d2) for d2 in basis] for d1 in basis])
    assert np.max(np.abs(gram - np.eye(len(basis)))) < 1e-12


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


@pytest.mark.parametrize("cond", [1e2, 3e2, 1e3])
def test_a_non_unitary_basis_change_gives_the_dimension_or_a_typed_error(cond):
    # S = U diag(1 .. 1/cond) V: a dimension that is returned must be right,
    # and at cond 1e2, where the algebra is exact to 3.1e-11 in
    # GNS-orthonormal coordinates, every draw is answered
    base = multimatrix([(2, 0.75), (1, 0.25)])
    answered = 0
    for seed in range(100, 112):
        rng = np.random.default_rng(seed)
        u, v = random_unitary(rng, 5), random_unitary(rng, 5)
        alg = in_basis(base, u @ np.diag(np.logspace(0, -np.log10(cond), 5)) @ v)
        try:
            value = vn_dimension(phi_x(derivation_space(alg))).value
        except SteinlabError:
            continue
        assert abs(value - 0.796875) < 1e-10, (seed, value)
        answered += 1
    if cond <= 1e2:
        assert answered == 12


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    st.lists(st.tuples(st.integers(1, 2), st.integers(1, 9)), min_size=1, max_size=3)
    .filter(lambda raw: sum(n * n for n, _ in raw) <= 6),
    st.floats(0.0, 3.0),
    st.integers(0, 2**32 - 1),
)
def test_dimension_under_a_basis_change_is_right_or_refused(raw, log_cond, seed):
    # non-unitary basis changes up to cond 1e3: the readout from the kernel
    # returns the closed form or raises a typed error, never a wrong number
    total = sum(w for _, w in raw)
    blocks = [(n, w / total) for n, w in raw]
    base = multimatrix(blocks)
    rng = np.random.default_rng(seed)
    u, v = random_unitary(rng, base.dim), random_unitary(rng, base.dim)
    alg = in_basis(base, u @ np.diag(np.logspace(0, -log_cond, base.dim)) @ v)
    try:
        value = vn_dimension(phi_x(derivation_space(alg))).value
    except SteinlabError:
        return
    assert abs(value - (1 - sum(a * a / (n * n) for n, a in blocks))) < 1e-10


def test_an_inexact_algebra_is_refused():
    # structure constants moved by 1e-10 still validate at 1e-8, but miss
    # associativity in GNS-orthonormal coordinates above the exactness
    # bound; the kernel route and the inner path both refuse them
    alg = multimatrix([(2, 0.75), (1, 0.25)])
    noise = 1e-10 * np.random.default_rng(3).standard_normal(alg.mult.shape)
    moved = FDAlgebra(alg.dim, alg.mult + noise, alg.star, alg.unit, alg.trace)
    assert validate(moved).passed
    with pytest.raises(InexactAlgebra, match="residual .* exceeds the exactness bound 5e-11"):
        derivation_space(moved)
    with pytest.raises(InexactAlgebra, match="residual .* exceeds the exactness bound 5e-11"):
        inner_derivation_module(moved, np.eye(alg.dim))


def test_unstructured_basis_hits_the_dense_limit_at_dim_16():
    # with no zero structure the Leibniz rows of a two-element generating
    # set are one 8192 x 4096 block, 2.25 GiB on the QR path
    alg = rotated(multimatrix([(4, 1.0)]), np.random.default_rng(9))
    assert alg.dim == 16
    assert validate(alg).passed
    with pytest.raises(DenseLimitExceeded, match="exceeds the dense limit of 1073741824 bytes"):
        derivation_space(alg)


# -- the Leibniz rows of a generating set ----------------------------------------

def test_cut_rows_give_the_full_kernel_on_every_shipped_algebra():
    # every corpus algebra and crossed product, both examples and the
    # dense_ladder inputs at seeds 0-9
    for label, alg in _shipped_algebras().items():
        full = nullspace(leibniz_system(alg, np.arange(alg.dim))).vectors().T
        cut = nullspace(leibniz_system(alg, alg.generating_indices)).vectors().T
        assert cut.shape == full.shape, label
        # with equal ranks ||P_full - P_cut||_2 = ||(1 - P_full) Q_cut||_2,
        # at most its Frobenius norm
        assert np.linalg.norm(cut - full @ (full.conj().T @ cut)) <= 1e-12, label


@pytest.mark.parametrize(
    "alg",
    [
        crossed_product(dual_action(3).algebra, dual_action(3)).algebra,
        rotated(multimatrix([(2, 0.6), (1, 0.4)]), np.random.default_rng(4)),
        multimatrix([(1, 0.5), (1, 0.5)]),
    ],
    ids=["C[Z/3] x| Z/3 (dual)", "M2+C rotated", "C+C"],
)
def test_dropping_the_last_generating_index_enlarges_the_kernel(alg):
    rows = alg.generating_indices
    full = nullspace(leibniz_system(alg, rows)).shape[1]
    assert nullspace(leibniz_system(alg, np.arange(alg.dim))).shape[1] == full
    assert nullspace(leibniz_system(alg, rows[:-1])).shape[1] > full


def test_generating_indices_of_matrix_units_are_computed_once(monkeypatch):
    alg = multimatrix([(3, 0.5), (2, 0.3), (1, 0.2)])
    calls = []
    grow = algebra_module._new_span
    monkeypatch.setattr(algebra_module, "_new_span", lambda *a: calls.append(1) or grow(*a))
    rows = alg.generating_indices
    assert calls
    assert rows.dtype.kind == "i" and np.all(np.diff(rows) > 0)
    assert 0 <= rows[0] and rows[-1] < alg.dim and rows.size < alg.dim
    # the words in S span A: a product of two matrix units is a matrix
    # unit or 0, so the words are the units reached from S by left
    # multiplication
    words = set(rows.tolist())
    while True:
        grown = words | {int(np.flatnonzero(alg.mult[x, w])[0])
                         for x in rows for w in words if alg.mult[x, w].any()}
        if grown == words:
            break
        words = grown
    assert words == set(range(alg.dim))
    done = len(calls)
    derivation_space(alg)
    assert alg.generating_indices is rows and len(calls) == done


def test_the_unit_is_left_out_of_S_when_the_other_words_reach_it():
    # u_1 generates C[Z/n], the unit included, so S is u_1 alone; in
    # C[Z/3] x| Z/3 it is u_1 and b_1 u_e
    dual = dual_action(3)
    assert crossed_product(dual.algebra, dual).algebra.generating_indices.tolist() == [1, 3]
    c = multimatrix([(1, 1.0)])
    for n in range(2, 7):
        cp = crossed_product(c, trivial_action(cyclic(n), c))
        assert cp.algebra.generating_indices.tolist() == [1], n


def test_a_rotated_basis_is_generated_by_two_elements():
    for seed in range(3):
        alg = rotated(multimatrix([(2, 0.5), (1, 0.3), (1, 0.2)]), np.random.default_rng(seed))
        assert alg.generating_indices.tolist() == [0, 1]


def test_former_dim_12_limit_case_fits_the_guard(monkeypatch):
    # the rotated dim-12 algebra that exceeded the dense limit with every
    # row is one 3456 x 1728 block on the rows of its two generators,
    # 144 * 1728^2 complex entries' worth (0.40 GiB); only the guard runs
    alg = rotated(multimatrix([(3, 0.4), (1, 0.3), (1, 0.2), (1, 0.1)]), np.random.default_rng(9))
    need, count = [], _linalg._dense_bytes

    def stop(*shapes):
        need.append(count(*shapes))
        raise DenseLimitExceeded("stopped after the guard")

    monkeypatch.setattr(_linalg, "_dense_bytes", stop)
    with pytest.raises(DenseLimitExceeded, match="stopped after the guard"):
        derivation_space(alg)
    assert need == [16 * 9 * 1728**2 + 8 * 1728]
    assert need[0] < _linalg.DENSE_LIMIT


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


def _m2_hadamard():
    # Ad of the Hadamard matrix mixes the matrix units, so no scaling
    # conjugation of the crossed product is monomial
    hadamard = np.array([1, 1, 1, -1], dtype=complex) / np.sqrt(2)
    return crossed_product(M2, ad_action(cyclic(2), M2, np.stack([M2.unit, hadamard])))


def _c4_d4():
    # D4 on the vertices of the square: r^a s^b sends q to a +- q mod 4
    c4 = multimatrix([(1, 0.25)] * 4)
    perms = [[(a + (q if b == 0 else -q)) % 4 for q in range(4)]
             for b in range(2) for a in range(4)]
    return crossed_product(c4, permutation_action(dihedral_4(), c4, perms))


CROSSED = {
    "C^2 x| Z/2": lambda: crossed_product(
        multimatrix([(1, 0.5), (1, 0.5)]),
        permutation_action(cyclic(2), multimatrix([(1, 0.5), (1, 0.5)]), [[0, 1], [1, 0]]),
    ),
    "M2+C x| Z/2 (ad)": _m2c_z2,
    "C[Z/3] x| Z/3 (dual)": lambda: crossed_product(dual_action(3).algebra, dual_action(3)),
    "C^3 x| S3": _c3_s3,
    "M2 x| Z/2 (Ad Hadamard)": _m2_hadamard,
}


@pytest.fixture(scope="module", params=list(CROSSED))
def crossed(request):
    """A crossed product with derivations of A and of A x| G: the basis of
    Der(A) and, for A x| G, a few basis elements plus a random combination
    and a random matrix that is no derivation."""
    cp = CROSSED[request.param]()
    base = derivation_space(cp.base).columns(slice(None))
    space = derivation_space(cp.algebra).columns(slice(None))
    rng = np.random.default_rng(11)
    mix = np.einsum("r,rpj->pj", rng.standard_normal(len(space)), space)
    noise = rng.standard_normal(space.shape[1:]) + 1j * rng.standard_normal(space.shape[1:])
    big = np.concatenate([space[:3], mix[None], noise[None]])
    return cp, base, big


@pytest.mark.parametrize("name", ["C^3 x| S3", "M2+C x| Z/2 (ad)"])
def test_columns_read_the_basis_without_forming_it(name):
    # a few derivations read from their kernel blocks are exactly those of
    # the whole basis, and nothing is cached
    space = derivation_space(CROSSED[name]().algebra)
    picks = [slice(2), slice(4), [space.rank - 1, 0, 3], [5]]
    got = [space.columns(idx) for idx in picks]
    assert set(vars(space)) == {"algebra", "kernel"}
    basis = space.columns(slice(None))
    for idx, cols in zip(picks, got):
        assert np.array_equal(cols, basis[idx])


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


@pytest.mark.parametrize("name", [*CROSSED, "C^4 x| D4"])
def test_covariance_over_the_generators_has_the_zero_set_over_every_element(name):
    # sigma_g sigma_h = sigma_hg, so the generators fix exactly what G fixes
    cp = _c4_d4() if name == "C^4 x| D4" else CROSSED[name]()
    k = cp.group.order
    space = derivation_space(cp.algebra)
    rng = np.random.default_rng(13)
    mix = np.einsum("r,rpj->pj", rng.standard_normal(min(space.rank, 40)),
                    space.columns(slice(40)))
    shape = mix.shape
    noise = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    # extensions of base derivations vanish on C[G], so they are fixed
    base = derivation_space(cp.base).columns(slice(2))
    fixed = np.concatenate([extend_vanishing(cp, base, h) for h in range(k)])
    mats = np.concatenate([space.columns(slice(4)), mix[None], fixed, noise[None]])
    over_gens = covariance_defect(cp, mats)
    # every element, through the conjugation checked against the dense
    # reference on CROSSED
    scale = np.maximum(1.0, np.linalg.norm(mats, axis=(1, 2)))
    over_all = np.max([np.linalg.norm(scaling_conjugation(cp, g, mats) - mats, axis=(1, 2))
                       for g in range(k)], axis=0) / scale
    assert np.array_equal(over_gens <= 1e-8, over_all <= 1e-8)
    assert over_gens[-1] > 1e-3
    assert (covariance_defect(cp, fixed) <= 1e-8).all()


def test_covariance_over_the_trivial_group_is_zero():
    # Z/1 has no generators, and its one conjugation is the identity
    cp = crossed_product(M2, trivial_action(cyclic(1), M2))
    assert cp.group.generators == []
    mats = np.random.default_rng(14).standard_normal((3, 16, 4)) + 0j
    assert np.array_equal(covariance_defect(cp, mats), np.zeros(3))


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
