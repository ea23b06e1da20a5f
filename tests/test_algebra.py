import importlib.util
import json
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from steinlab import (
    ExperimentSpec,
    FDAlgebra,
    WeightsNotNormalized,
    corpus_specs,
    crossed_product,
    cyclic,
    group_algebra,
    multimatrix,
    symmetric_3,
    validate,
)
from steinlab.algebra import EXACT_BOUND, certify_exact

ROOT = Path(__file__).resolve().parent.parent

M2C = multimatrix([(2, 2 / 3), (1, 1 / 3)], label="M2+C")


def rand_elem(alg, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(alg.dim) + 1j * rng.standard_normal(alg.dim)


@pytest.mark.parametrize(
    "blocks",
    [[(1, 1.0)], [(1, 0.5), (1, 0.5)], [(2, 1.0)], [(2, 0.5), (3, 0.5)],
     [(3, 0.2), (2, 0.5), (1, 0.3)]],
)
def test_multimatrix_satisfies_axioms(blocks):
    rep = validate(multimatrix(blocks))
    assert rep.passed, rep.residuals
    assert rep.gram_min_eig > 0


@pytest.mark.parametrize("grp", [cyclic(2), cyclic(5), symmetric_3()])
def test_group_algebra_satisfies_axioms(grp):
    rep = validate(group_algebra(grp))
    assert rep.passed, rep.residuals


def test_weights_must_sum_to_one():
    with pytest.raises(WeightsNotNormalized):
        multimatrix([(2, 0.5), (1, 0.3)])


def test_validate_flags_broken_trace():
    alg = multimatrix([(2, 1.0)])
    bad = FDAlgebra(alg.dim, alg.mult, alg.star, alg.unit, 2.0 * alg.trace)
    rep = validate(bad)
    assert not rep.passed
    name, worst = rep.worst()
    assert worst > 1e-2


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.integers(0, 10_000))
def test_star_is_antimultiplicative(s1, s2):
    x, y = rand_elem(M2C, s1), rand_elem(M2C, s2)
    lhs = M2C.star_of(M2C.mul(x, y))
    rhs = M2C.mul(M2C.star_of(y), M2C.star_of(x))
    assert np.max(np.abs(lhs - rhs)) < 1e-10


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.integers(0, 10_000))
def test_trace_is_cyclic(s1, s2):
    x, y = rand_elem(M2C, s1), rand_elem(M2C, s2)
    assert abs(M2C.tr(M2C.mul(x, y)) - M2C.tr(M2C.mul(y, x))) < 1e-10


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.integers(0, 10_000), st.integers(0, 10_000))
def test_inner_product_sesquilinearity(s1, s2, s3):
    x, y, z = (rand_elem(M2C, s) for s in (s1, s2, s3))
    a = 0.7 - 0.3j
    lhs = M2C.inner(a * x + z, y)
    rhs = a * M2C.inner(x, y) + M2C.inner(z, y)
    assert abs(lhs - rhs) < 1e-9
    assert abs(M2C.inner(x, y) - np.conj(M2C.inner(y, x))) < 1e-9


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_norm_is_faithful(seed):
    x = rand_elem(M2C, seed)
    assert M2C.norm(x) > 0 or np.max(np.abs(x)) == 0


def test_mult_matrices_realize_products():
    x, y = rand_elem(M2C, 1), rand_elem(M2C, 2)
    assert np.allclose(M2C.left_mult(x) @ y, M2C.mul(x, y))
    assert np.allclose(M2C.right_mult(y) @ x, M2C.mul(x, y))
    # the two commute: (a . ) and ( . b)
    comm = M2C.left_mult(x) @ M2C.right_mult(y) - M2C.right_mult(y) @ M2C.left_mult(x)
    assert np.max(np.abs(comm)) < 1e-12


def test_onb_round_trip():
    t = M2C.onb_factor
    x = rand_elem(M2C, 3)
    assert np.allclose(np.linalg.solve(t, t @ x), x)
    # orthonormal coordinates carry the GNS inner product to the standard one
    y = rand_elem(M2C, 4)
    assert abs(np.vdot(t @ y, t @ x) - M2C.inner(x, y)) < 1e-9


def test_tomita_conjugation_is_involutive():
    # the Tomita conjugation J x = x* on the GNS space
    j = M2C.star_of
    x = rand_elem(M2C, 5)
    assert np.allclose(j(j(x)), x)
    assert np.allclose(j(x), M2C.star @ np.conj(x))
    # <Jx, Jy> = <y, x>
    y = rand_elem(M2C, 6)
    assert abs(M2C.inner(j(x), j(y)) - M2C.inner(y, x)) < 1e-9


def test_antilinear_sandwich_matrix():
    # J M J is linear, with matrix s conj(M) conj(s) for J v = s conj(v)
    s = M2C.star
    m = np.asarray(
        np.random.default_rng(7).standard_normal((M2C.dim, M2C.dim)), dtype=complex
    )
    x = rand_elem(M2C, 8)
    assert np.allclose((s @ np.conj(m) @ np.conj(s)) @ x, M2C.star_of(m @ M2C.star_of(x)))


def test_gram_matches_trace_pairing():
    for i in range(M2C.dim):
        for j in range(M2C.dim):
            want = M2C.tr(M2C.mul(M2C.star_of(M2C.basis(i)), M2C.basis(j)))
            assert abs(M2C.gram[i, j] - want) < 1e-12


def _shipped_algebras() -> dict:
    """Every corpus algebra and crossed product, both examples' algebras and
    crossed products, and the dense_ladder inputs of the benchmark at
    seeds 0-9."""
    specs = corpus_specs(seed=0) + [
        ExperimentSpec.from_json(json.loads(path.read_text()))
        for path in sorted((ROOT / "examples").glob("*.json"))
    ]
    out = {}
    for spec in specs:
        out[spec.label] = spec.algebra
        out[spec.label + " crossed"] = crossed_product(spec.algebra, spec.action).algebra
    name = "benchmark_workloads"
    found = importlib.util.spec_from_file_location(name, ROOT / "benchmark" / "workloads.py")
    workloads = sys.modules.setdefault(name, importlib.util.module_from_spec(found))
    found.loader.exec_module(workloads)
    for seed in range(10):
        for label, spec in workloads.dense_inputs(seed).items():
            out[f"dense_ladder {seed} {label}"] = workloads._dense_algebra(spec)
    return out


def test_every_shipped_algebra_passes_the_exactness_certificate():
    algs = _shipped_algebras()
    assert len(algs) == 2 * 19 + 30
    for label, alg in algs.items():
        certify_exact(alg)
        # far inside the bound: these are exact to rounding
        assert max(alg.onb_residuals.values()) < EXACT_BOUND / 1000, label


def test_exactness_certificate_streams_the_associativity_residual():
    # the associativity residual is summed one i-slab of n^3 entries at a
    # time: M6 (n = 36) holds about 0.7 MiB per slab, where the three whole
    # n^4 arrays were 78 MiB
    alg = multimatrix([(6, 1.0)])
    tracemalloc.start()
    try:
        certify_exact(alg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert alg.onb_residuals["associativity"] < EXACT_BOUND
    assert peak < 10 * 2**20
