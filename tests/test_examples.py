"""The spec files under examples/, run through the command line."""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from steinlab.cli import main
from test_scripts import GOLDEN, load

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"

# file -> (dim Der(A), |G|, [G:H] for the designated subgroup H, checks skipped)
CASES = {
    # S3 permuting the summands of C^3: A x| G = M3 + M3
    "c3_s3.json": (
        Fraction(2, 3), 6, 2,
        {"group_algebra_dim", "scaling_unitary", "scaled_generators"},
    ),
    # Z/2 x Z/2 acting on M2 by Ad(X^a Z^b): A x| G = M4
    "m2_v4_pauli.json": (Fraction(3, 4), 4, 2, {"group_algebra_dim"}),
}


@pytest.mark.parametrize("name", list(CASES))
def test_example_spec_passes_with_its_closed_forms(name, capsys):
    dim_a, order, index, skipped = CASES[name]
    assert main(["run", str(EXAMPLES / name), "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    # golden/<name> is `steinlab run examples/<name> --format json` of an
    # earlier revision: the same verdicts, and values moved by rounding at most
    faults, worst = load("report_diff").compare(json.loads((GOLDEN / name).read_text()), report)
    assert faults == []
    assert max(worst.values()) <= 1e-12
    rows = {r["name"]: r for r in report["reports"][0]["rows"]}
    assert {n for n, r in rows.items() if r["status"] == "skipped"} == skipped
    assert all(r["status"] == "pass" for n, r in rows.items() if n not in skipped)
    # Schreier: dim Der(A x| G) = 1 + (dim Der(A) - 1) / |G|
    dim_m = 1 + (dim_a - 1) / order
    want = {
        "multimatrix_formula": dim_a,
        "crossed_multimatrix": dim_m,
        "schreier_crossed": dim_m,
        "schreier_vanishing": order * dim_a,
        "index_scaling_full": order * order,
        "subgroup_schreier": dim_m - 1,
    }
    for check, value in want.items():
        assert abs(rows[check]["lhs"] - float(value)) < 1e-12, check
        assert rows[check]["lhs_fraction"] == str(value), check
    assert rows["subgroup_schreier"]["note"] == f"index {index}"
