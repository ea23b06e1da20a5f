"""Acceptance gate.

One test per criterion, each printing a single PASS/FAIL line with the
measured numbers. Tolerances and runtime budgets are part of the
criteria and are asserted, not just reported.
"""

import json
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

from steinlab import (
    ad_action,
    characters,
    crossed_product,
    cyclic,
    derivation_space,
    direct_product,
    group_algebra,
    inner_derivation_module,
    multimatrix,
    multimatrix_generators,
    permutation_action,
    phi_x,
    scaled_generating_set,
    scaling_residual,
    span_equal,
    subalgebra_generate,
    symmetric_3,
    trivial_action,
    vn_dimension,
)
from steinlab.reports import corpus_specs


def _report(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")


def _dim(alg) -> float:
    return vn_dimension(phi_x(derivation_space(alg))).value


def test_criterion_1_group_algebra_dimensions():
    """dim Der(C[G]) = 1 - 1/|G| for the seven required groups."""
    groups = [cyclic(n) for n in (2, 3, 4, 5, 6)]
    groups.append(direct_product(cyclic(2), cyclic(2)))
    groups.append(symmetric_3())
    t0 = time.perf_counter()
    worst = 0.0
    for g in groups:
        val = _dim(group_algebra(g))
        worst = max(worst, abs(val - (1.0 - 1.0 / g.order)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-7 and elapsed < 10.0
    _report(1, ok, f"7 group algebras, worst |lhs-rhs| {worst:.2e}, {elapsed:.2f}s")
    assert worst <= 1e-7
    assert elapsed < 10.0


def test_criterion_2_randomized_multimatrix_formula():
    """10 random block patterns against 1 - sum alpha_i^2 / n_i^2."""
    rng = np.random.default_rng(20260814)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(10):
        nblocks = int(rng.integers(1, 4))
        sizes = [int(rng.integers(1, 4)) for _ in range(nblocks)]
        weights = rng.random(nblocks) + 0.1
        weights = weights / weights.sum()
        blocks = [(n, float(a)) for n, a in zip(sizes, weights)]
        alg = multimatrix(blocks)
        module = inner_derivation_module(alg, multimatrix_generators(blocks))
        val = vn_dimension(module).value
        want = 1.0 - sum(a * a / (n * n) for n, a in blocks)
        worst = max(worst, abs(val - want))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-7 and elapsed < 30.0
    _report(2, ok, f"10 random specs, worst |lhs-rhs| {worst:.2e}, {elapsed:.2f}s")
    assert worst <= 1e-7
    assert elapsed < 30.0


def test_criterion_3_schreier_instances():
    """Both sides of the crossed-product dimension relation on the four
    required families, with the right side computed from Der(A) alone."""
    cases = []

    c2 = multimatrix([(1, 0.5), (1, 0.5)], label="C^2")
    cases.append((c2, permutation_action(cyclic(2), c2, [[0, 1], [1, 0]]), 0.75))

    m2 = multimatrix([(2, 1.0)], label="M2")
    sign = np.array([1, 0, 0, -1], dtype=complex)
    cases.append((m2, ad_action(cyclic(2), m2, np.stack([m2.unit, sign])), 0.875))

    for n in (2, 3, 4, 5, 6):
        c1 = multimatrix([(1, 1.0)], label="C")
        cases.append((c1, trivial_action(cyclic(n), c1), 1.0 - 1.0 / n))

    cz2 = group_algebra(cyclic(2))
    cases.append((cz2, trivial_action(cyclic(2), cz2), 0.75))

    t0 = time.perf_counter()
    worst = 0.0
    for alg, act, expected in cases:
        k = act.group.order
        rhs = 1.0 + (_dim(alg) - 1.0) / k
        cp = crossed_product(alg, act)
        lhs = _dim(cp.algebra)
        worst = max(worst, abs(lhs - rhs), abs(lhs - expected), abs(rhs - expected))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-7 and elapsed < 60.0
    _report(3, ok, f"{len(cases)} instances, worst deviation {worst:.2e}, {elapsed:.2f}s")
    assert worst <= 1e-7
    assert elapsed < 60.0


def _rows(corpus_reports, name):
    return [(rep.label, rep.row(name)) for rep in corpus_reports]


def test_criterion_4_vanishing_and_index_scaling(corpus_reports):
    """|G| dim Der(A) for the vanishing subspace and the |G|^2 index jump
    for restriction of scalars, on every corpus pair."""
    worst = 0.0
    for name in ("schreier_vanishing", "index_scaling_full", "index_scaling_vanishing"):
        for label, row in _rows(corpus_reports, name):
            assert row.status == "pass", f"{label}/{name}: {row.status} {row.note}"
            worst = max(worst, row.residual)
    ok = worst <= 1e-7
    _report(4, ok, f"{len(corpus_reports)} pairs x 3 relations, worst residual {worst:.2e}")
    assert worst <= 1e-7


IDENTITY_CHECKS = (
    "coset_projection_relations",
    "covariance_equivalence",
    "extension_orthogonality",
    "extension_vanishing",
    "round_trip_extend_restrict",
    "central_projection_formula",
    "central_family_orthonormal",
    "scaling_unitary",
    "scaling_average_vanishes",
)


def test_criterion_5_identity_suite(corpus_reports):
    """Structural identities on every applicable corpus pair."""
    worst = 0.0
    executed = 0
    for name in IDENTITY_CHECKS:
        ran = 0
        for label, row in _rows(corpus_reports, name):
            if row.status == "skipped":
                continue
            assert row.status == "pass", f"{label}/{name}: {row.note}"
            worst = max(worst, row.residual)
            ran += 1
        assert ran > 0, f"{name} never ran"
        executed += ran
    ok = worst <= 1e-8
    _report(
        5,
        ok,
        f"{len(IDENTITY_CHECKS)} identities, {executed} applications, "
        f"worst residual {worst:.2e}",
    )
    assert worst <= 1e-8


def test_criterion_6_generating_set_independence(corpus_reports):
    """The reported dimension agrees across two generating sets for every
    corpus algebra."""
    worst = 0.0
    for label, row in _rows(corpus_reports, "generating_set_independence"):
        assert row.status == "pass", f"{label}: {row.note}"
        worst = max(worst, row.residual)
    ok = worst <= 1e-7
    _report(6, ok, f"{len(corpus_reports)} algebras, worst |dim_a-dim_b| {worst:.2e}")
    assert worst <= 1e-7


def test_criterion_7_subgroup_instances(corpus_reports):
    """The index-[G:H] relation between the two crossed products for the
    designated subgroup pairs."""
    found = []
    worst = 0.0
    for label, row in _rows(corpus_reports, "subgroup_schreier"):
        if row.status == "skipped":
            continue
        assert row.status == "pass", f"{label}: {row.note}"
        found.append(label)
        worst = max(worst, row.residual)
    ok = len(found) == 2 and worst <= 1e-7
    _report(7, ok, f"instances {found}, worst residual {worst:.2e}")
    assert any("Z/4" in label for label in found)
    assert any("Z/2xZ/2" in label for label in found)
    assert len(found) == 2
    assert worst <= 1e-7


def test_criterion_8_scaled_generating_sets():
    """Character-averaged generating sets: eigenvalue equation to 1e-9 and
    the same generated subalgebra, for every abelian corpus action."""
    worst = 0.0
    count = 0
    for spec in corpus_specs(seed=7):
        grp, alg, act = spec.group, spec.algebra, spec.action
        if not grp.is_abelian:
            continue
        xs = [alg.basis(i) for i in range(alg.dim)]
        chars = characters(grp)
        pairs = scaled_generating_set(xs, act, chars)
        worst = max(worst, scaling_residual(pairs, act))
        orbit = [act.apply(g, x) for x in xs for g in range(grp.order)]
        same = span_equal(
            alg,
            subalgebra_generate(alg, [y for y, _ in pairs]),
            subalgebra_generate(alg, xs + orbit),
        )
        assert same, f"{spec.label}: scaled set generates a different subalgebra"
        count += 1
    ok = worst <= 1e-9 and count > 0
    _report(8, ok, f"{count} abelian actions, worst scaling residual {worst:.2e}")
    assert worst <= 1e-9
    assert count > 0


def test_criterion_9_cli_determinism(tmp_path):
    """Two corpus runs with the same seed produce byte-identical JSON."""
    exe = shutil.which("steinlab")
    base = [exe] if exe else [sys.executable, "-m", "steinlab.cli"]
    outs = []
    for name in ("a.json", "b.json"):
        path = tmp_path / name
        proc = subprocess.run(
            base + ["corpus", "--seed", "7", "--format", "json", "--out", str(path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(path.read_bytes())
    identical = outs[0] == outs[1]
    parsed = json.loads(outs[0])
    ok = identical and len(parsed["reports"]) > 0
    _report(9, ok, f"{len(outs[0])} bytes per report file, identical: {identical}")
    assert identical
