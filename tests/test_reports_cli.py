import dataclasses
import gc
import json
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from steinlab import (
    CrossedProduct,
    FDAlgebra,
    GroupAction,
    SpecInvalid,
    cyclic,
    dihedral_4,
    group_algebra,
    multimatrix,
    reports,
    symmetric_3,
    trivial_action,
)
from steinlab import constructions
from steinlab.algebra import FactorMap
from steinlab.cli import main
from steinlab.reports import (
    CHECKS,
    ExperimentSpec,
    RunContext,
    corpus_specs,
    parse_action,
    parse_algebra,
    parse_group,
    run,
)
from test_derivations import rotated

C2_SPEC = {
    "label": "swap test",
    "algebra": {"multimatrix": {"blocks": [[1, 0.5], [1, 0.5]]}},
    "group": "Z/2",
    "action": {"name": "permutation", "perms": [[0, 1], [1, 0]]},
}


# -- parsing -----------------------------------------------------------------------

def test_parse_group_names():
    assert parse_group("Z/5").order == 5
    assert parse_group("S3").order == 6
    assert parse_group("D4").order == 8
    v4 = parse_group("Z/2xZ/2")
    assert v4.order == 4 and v4.is_abelian
    assert parse_group("V4").order == 4
    explicit = parse_group({"order": 2, "table": [[0, 1], [1, 0]]})
    assert explicit.order == 2


@pytest.mark.parametrize("bad", ["Q8", "Z/x", 17, {"order": 2}])
def test_parse_group_rejects_garbage(bad):
    with pytest.raises(SpecInvalid):
        parse_group(bad)


@pytest.mark.parametrize("table", [
    [[0, 1], [1, 0.7]],
    [[False, True], [True, False]],
    [["0", 1], [1, 0]],
    [[0, True], [True, 0]],
], ids=["float", "boolean", "string", "boolean-among-integers"])
def test_group_tables_take_integers_only(table):
    # each would read as Z/2 through int(), and the last one also by its
    # dtype, as NumPy casts it to int64
    with pytest.raises(SpecInvalid, match="group.table: expected lists of integers"):
        parse_group({"order": 2, "table": table})


def test_parse_algebra_forms():
    alg, blocks = parse_algebra({"multimatrix": {"blocks": [[2, 1.0]]}})
    assert alg.dim == 4 and blocks == [(2, 1.0)]
    alg, blocks = parse_algebra({"group_algebra": "Z/3"})
    assert alg.dim == 3 and blocks is None
    ref = multimatrix([(1, 1.0)])
    alg, _ = parse_algebra(
        {
            "dim": 1,
            "mult": [[[[1, 0]]]],
            "star": [[[1, 0]]],
            "unit": [[1, 0]],
            "trace": [[1, 0]],
        }
    )
    assert np.allclose(alg.mult, ref.mult)


def test_parse_algebra_complex_pairs_enforced():
    with pytest.raises(SpecInvalid):
        parse_algebra(
            {"dim": 1, "mult": [[[1.0]]], "star": [[1.0]], "unit": [1.0],
             "trace": [1.0]}
        )
    with pytest.raises(SpecInvalid):
        parse_algebra({"dim": 1, "mult": [[[[1, 0]]]], "star": [[[1, 0]]]})


def test_parse_action_forms():
    alg = multimatrix([(1, 0.5), (1, 0.5)])
    z2 = cyclic(2)
    assert isinstance(parse_action("trivial", z2, alg), GroupAction)
    act = parse_action({"name": "permutation", "perms": [[0, 1], [1, 0]]}, z2, alg)
    assert np.allclose(act.matrices[1], [[0, 1], [1, 0]])
    raw = parse_action(
        {"matrices": [[[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
                      [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]]},
        z2, alg,
    )
    assert np.allclose(raw.matrices[1], [[0, 1], [1, 0]])
    with pytest.raises(SpecInvalid):
        parse_action({"name": "dual"}, cyclic(3), alg)  # needs dim = |G|
    with pytest.raises(SpecInvalid):
        parse_action("mystery", z2, alg)


@pytest.mark.parametrize("algebra, group", [("Z/2xZ/2", "Z/2xZ/2"), ("Z/2xZ/2", "Z/4")])
def test_dual_action_needs_the_group_algebra_of_a_cyclic_group(tmp_path, capsys, algebra, group):
    # dim A = |G| = 4 in both, but the characters of Z/4 act on C[Z/4] only:
    # the spec is refused instead of run with an action that fails its axioms
    payload = {"label": "dual", "algebra": {"group_algebra": algebra}, "group": group,
               "action": {"name": "dual"}}
    with pytest.raises(SpecInvalid, match=r"dual action needs C\[Z/4\] under Z/4"):
        ExperimentSpec.from_json(payload)
    path = tmp_path / "dual.json"
    path.write_text(json.dumps({"experiments": [payload]}))
    assert main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("steinlab: ") and err.count("\n") == 1


def test_an_action_is_validated_once(monkeypatch):
    # the constructor computes the action's residuals and holds them;
    # crossed_product and the action_valid row read them, with no frob
    spec = ExperimentSpec.from_json(
        dict(C2_SPEC, checks=["algebra_valid", "action_valid", "schreier_crossed"]))
    assert "residuals" in vars(spec.action)

    def no_frob(m):
        raise AssertionError("the action's residuals were computed again")

    monkeypatch.setattr(constructions, "frob", no_frob)
    rep = run(spec)
    assert rep.passed
    assert rep.row("action_valid").lhs == max(spec.action.residuals.values())


def test_spec_rejects_unknown_checks():
    payload = dict(C2_SPEC, checks=["schreier_crossed", "nonsense"])
    with pytest.raises(SpecInvalid):
        ExperimentSpec.from_json(payload)


@pytest.mark.parametrize("field, value", [
    ("tolerance", True),
    ("seed", True),
    ("subgroup", [False, True]),
    ("algebra", {"multimatrix": {"blocks": [[True, 1.0]]}}),
    ("algebra", {"multimatrix": {"blocks": [[1, True]]}}),
    ("group", {"order": True, "table": [[0]]}),
    ("algebra", {"dim": True, "mult": [[[[1, 0]]]], "star": [[[1, 0]]],
                 "unit": [[1, 0]], "trace": [[1, 0]]}),
], ids=["tolerance", "seed", "subgroup", "block-size", "block-weight", "group-order", "dim"])
def test_json_booleans_are_not_numbers(field, value):
    # float() and int() read true as 1: a spec with "tolerance": true would
    # run with a pass/fail bound of 1.0, and one with a true block size or
    # weight, group order or dim would build C
    base = dict(C2_SPEC, group="Z/1", action="trivial")
    with pytest.raises(SpecInvalid, match="True|False"):
        ExperimentSpec.from_json(dict(base, **{field: value}))


# -- the runner --------------------------------------------------------------------

def test_run_subset_of_checks():
    spec = ExperimentSpec.from_json(
        dict(C2_SPEC, checks=["algebra_valid", "action_valid", "schreier_crossed"])
    )
    rep = run(spec)
    assert [r.name for r in rep.rows] == [
        "algebra_valid", "action_valid", "schreier_crossed"
    ]
    assert rep.passed
    row = rep.row("schreier_crossed")
    assert row.status == "pass"
    assert row.lhs_fraction == "3/4"
    assert row.residual < 1e-10


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize(
    "label", ["C^3 | Z/3 | cycle", "C | Z/3 | trivial", "M2+C | Z/2 | ad(diag(1,-1)+1)"]
)
def test_a_row_does_not_depend_on_the_checks_list(seed, label):
    # each check run alone, after the two foundation checks, gives the row
    # it gives in the full battery: no stage draws from a shared generator
    spec = next(s for s in corpus_specs(seed=seed) if s.label == label)
    full = run(spec)
    for name in ("scaling_unitary", "scaled_generators", "crossed_multimatrix",
                 "multimatrix_formula"):
        alone = run(dataclasses.replace(spec, checks=["algebra_valid", "action_valid", name]))
        got, want = alone.row(name), full.row(name)
        assert (got.status, got.lhs, got.rhs, got.residual, got.note) == (
            want.status, want.lhs, want.rhs, want.residual, want.note
        ), name


def test_run_skips_non_applicable_checks():
    spec = ExperimentSpec.from_json(dict(C2_SPEC, checks=["group_algebra_dim"]))
    rep = run(spec)
    assert rep.rows[0].status == "skipped"
    assert rep.passed  # skipped rows do not fail the report


def test_invalid_action_short_circuits():
    alg = multimatrix([(2, 1.0)])
    bad = GroupAction(cyclic(2), alg, np.stack([np.eye(4), 1.5 * np.eye(4)]))
    spec = ExperimentSpec(
        label="broken", algebra=alg, group=cyclic(2), action=bad,
        checks=["algebra_valid", "action_valid", "schreier_crossed",
                "multimatrix_formula"],
    )
    rep = run(spec)
    assert rep.row("action_valid").status == "fail"
    assert rep.row("schreier_crossed").status == "skipped"
    assert rep.row("multimatrix_formula").status == "skipped"
    assert not rep.passed


def test_failed_stage_is_computed_once(monkeypatch):
    calls = {}

    def failing_space(alg):
        calls[alg.dim] = calls.get(alg.dim, 0) + 1
        raise MemoryError(f"dim {alg.dim} too large")

    monkeypatch.setattr(reports, "derivation_space", failing_space)
    spec = ExperimentSpec.from_json(C2_SPEC)
    rep = run(spec)
    # one call per stage: space_a (A = C^2, dim 2) and space_m (A x| Z/2, dim 4)
    assert calls == {2: 1, 4: 1}
    assert rep.row("multimatrix_formula").note == "MemoryError: dim 2 too large"
    assert rep.row("schreier_crossed").note == "MemoryError: dim 4 too large"

    # recomputing every stage on every lookup gives the same rows
    calls.clear()
    for name, attr in list(vars(RunContext).items()):
        if isinstance(attr, property) and hasattr(attr.fget, "__wrapped__"):
            monkeypatch.setattr(RunContext, name, property(attr.fget.__wrapped__))
    again = run(spec)
    assert calls[4] > 1
    assert [(r.name, r.status, r.note) for r in again.rows] == [
        (r.name, r.status, r.note) for r in rep.rows
    ]


def test_every_corpus_check_name_is_registered(corpus_reports):
    for rep in corpus_reports:
        for row in rep.rows:
            assert row.name in CHECKS
            assert row.statement == CHECKS[row.name][0]


def test_corpus_covers_the_named_instances(corpus_reports):
    labels = [rep.label for rep in corpus_reports]
    assert len(labels) == len(set(labels))
    assert any("C^2 | Z/2" in s for s in labels)
    assert any("M2 | Z/2" in s for s in labels)
    assert any("S3" in s for s in labels)
    assert sum("dual" in s for s in labels) == 2


def test_corpus_reports_all_pass(corpus_reports):
    for rep in corpus_reports:
        failing = [r.name for r in rep.rows if r.status == "fail"]
        assert not failing, f"{rep.label}: {failing}"


# the generator count of generating_set_independence and its dimensions
# (lhs with the basis, rhs with the fallback set) on every spec that takes
# the fallback: no alt_generators and no multimatrix blocks past C
FALLBACK_ROWS = {
    **{f"C | {g} | trivial": ("1 vs 1 generators", 0.0)
       for g in ("Z/2", "Z/3", "Z/4", "Z/5", "Z/6", "Z/2xZ/2", "S3")},
    "C[Z/2] | Z/2 | trivial": ("2 vs 1 generators", 1 / 2),
    "C[Z/2] | Z/2 | dual": ("2 vs 1 generators", 1 / 2),
    "C[Z/3] | Z/3 | dual": ("3 vs 1 generators", 2 / 3),
    "C[S3] | Z/2 | trivial": ("6 vs 2 generators", 5 / 6),
    "C[D4] | Z/2 | trivial": ("8 vs 2 generators", 7 / 8),
}


def test_fallback_generating_sets_keep_their_counts(corpus_reports):
    rows = {rep.label: row for rep in corpus_reports for row in rep.rows
            if row.name == "generating_set_independence"}
    fallback = [s.label for s in corpus_specs(seed=7)
                if s.alt_generators is None and (s.blocks is None or s.algebra.dim == 1)]
    assert len(fallback) == 10 and set(fallback) < set(FALLBACK_ROWS)
    for name, grp in (("S3", symmetric_3()), ("D4", dihedral_4())):
        alg, z2 = group_algebra(grp), cyclic(2)
        spec = ExperimentSpec(f"C[{name}] | Z/2 | trivial", alg, z2, trivial_action(z2, alg),
                              checks=["generating_set_independence"])
        rows[spec.label] = run(spec).rows[0]
    for label, (note, value) in FALLBACK_ROWS.items():
        row = rows[label]
        assert (row.status, row.note) == ("pass", note), label
        assert abs(row.lhs - value) <= 1e-12 and abs(row.rhs - value) <= 1e-12, label


def test_json_round_trip_and_stability(corpus_reports):
    text = reports.to_json(corpus_reports)
    parsed = json.loads(text)
    assert len(parsed["reports"]) == len(corpus_reports)
    again = reports.to_json(reports.run_corpus(seed=7))
    assert text == again


def test_the_corpus_is_spec_file_data(tmp_path, capsys):
    # CORPUS is plain JSON, and steinlab run on it prints the bytes of
    # steinlab corpus
    assert json.loads(json.dumps(reports.CORPUS)) == reports.CORPUS
    path = write_spec(tmp_path, {"experiments": reports.CORPUS})
    for seed in ("0", "1"):
        assert main(["corpus", "--seed", seed, "--format", "json"]) == 0
        want = capsys.readouterr().out
        assert main(["run", path, "--seed", seed, "--format", "json"]) == 0
        assert capsys.readouterr().out == want


def test_markdown_and_csv_render(corpus_reports):
    md = reports.to_markdown(corpus_reports[:2])
    assert md.count("## ") == 2
    assert "| check | status |" in md
    csv_text = reports.to_csv(corpus_reports[:2])
    header = csv_text.splitlines()[0]
    assert header.startswith("experiment,check,status")
    assert len(csv_text.splitlines()) == 1 + sum(
        len(r.rows) for r in corpus_reports[:2]
    )


# -- command line ------------------------------------------------------------------

def write_spec(tmp_path, payload):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(payload))
    return str(path)


def test_cli_run_passes(tmp_path, capsys):
    path = write_spec(
        tmp_path,
        dict(C2_SPEC, checks=["algebra_valid", "schreier_crossed"]),
    )
    code = main(["run", path])
    out = capsys.readouterr().out
    assert code == 0
    assert "schreier_crossed" in out and "| pass |" in out


def test_cli_run_fails_at_tight_tolerance(tmp_path, capsys):
    path = write_spec(
        tmp_path, dict(C2_SPEC, checks=["multimatrix_formula", "schreier_crossed"])
    )
    code = main(["run", path, "--tolerance", "1e-30", "--format", "json"])
    rows = json.loads(capsys.readouterr().out)["reports"][0]["rows"]
    # the tolerance bounds |lhs - rhs| only; the closure test keeps its own
    # threshold, so both sides are still computed, and a row fails exactly
    # when its residual exceeds the tolerance (rounding may leave it at 0)
    assert [r["name"] for r in rows] == ["multimatrix_formula", "schreier_crossed"]
    for r in rows:
        assert all(isinstance(r[f], float) for f in ("lhs", "rhs", "residual"))
        assert r["note"] == ""
        assert (r["status"] == "fail") == (r["residual"] > 1e-30)
    assert (code == 1) == any(r["status"] == "fail" for r in rows)


def test_cli_run_fails_on_a_residual_above_the_tolerance(tmp_path, capsys, monkeypatch):
    # a deterministic residual of 2.2e-16: a fail at 1e-30, a pass at 1e-8
    statement, _ = CHECKS["schreier_crossed"]
    monkeypatch.setitem(
        CHECKS, "schreier_crossed",
        (statement, lambda rc: reports.Compared(1.0 + 2.0**-52, 1.0)),
    )
    path = write_spec(tmp_path, dict(C2_SPEC, checks=["schreier_crossed"]))
    assert main(["run", path, "--tolerance", "1e-30", "--format", "json"]) == 1
    row = json.loads(capsys.readouterr().out)["reports"][0]["rows"][0]
    assert row["status"] == "fail"
    assert row["residual"] == 2.0**-52
    assert main(["run", path, "--tolerance", "1e-8", "--format", "json"]) == 0
    capsys.readouterr()


def test_a_structural_mismatch_fails_at_any_tolerance(tmp_path, capsys, monkeypatch):
    # with every covariance defect read as 0, the derivations that do not
    # vanish on C[G] count as covariant: the two sides disagree, which no
    # tolerance can forgive; the residual, at least the count gap |lhs -
    # rhs|, is within the tolerance, so the failed condition fails the row
    monkeypatch.setattr(reports, "covariance_defect", lambda cp, mats: np.zeros(len(mats)))
    path = write_spec(tmp_path, dict(C2_SPEC, checks=["covariance_equivalence"]))
    assert main(["run", path, "--tolerance", "1e6", "--format", "json"]) == 1
    row = json.loads(capsys.readouterr().out)["reports"][0]["rows"][0]
    assert row["status"] == "fail"
    assert row["lhs"] < row["rhs"]
    assert row["rhs"] - row["lhs"] <= row["residual"] <= 1e6


def unfaithful_c2() -> dict:
    """C^2 with the trace (1, 0): a tracial state with a zero Gram eigenvalue."""
    def pairs(values):
        arr = np.asarray(values, dtype=complex)
        return np.stack([arr.real, arr.imag], axis=-1).tolist()

    mult = np.zeros((2, 2, 2))
    mult[0, 0, 0] = mult[1, 1, 1] = 1.0
    return {"dim": 2, "mult": pairs(mult), "star": pairs(np.eye(2)),
            "unit": pairs([1, 1]), "trace": pairs([1, 0])}


def test_cli_run_reports_a_trace_that_is_not_faithful(tmp_path, capsys):
    spec = {"label": "C^2, trace (1, 0)", "algebra": unfaithful_c2(), "group": "Z/2"}
    path = write_spec(tmp_path, spec)
    assert main(["run", path, "--format", "json"]) == 1
    out, err = capsys.readouterr()
    assert "Traceback" not in err
    rows = {r["name"]: r for r in json.loads(out)["reports"][0]["rows"]}
    valid = rows["algebra_valid"]
    assert valid["status"] == "fail"
    assert valid["note"] == "trace not faithful: minimum Gram eigenvalue 0.000e+00"
    assert rows["action_valid"]["status"] == "pass"
    others = [r["status"] for name, r in rows.items() if name not in ("algebra_valid", "action_valid")]
    assert others and set(others) == {"skipped"}


def test_faithfulness_does_not_move_with_the_report_tolerance(tmp_path, capsys):
    # a loose tolerance is no cut on the Gram spectrum: M2 x| V4 has minimum
    # Gram eigenvalue 1/2 and still validates at tolerance 10 ...
    example = Path(__file__).resolve().parent.parent / "examples" / "m2_v4_pauli.json"
    assert main(["run", str(example), "--tolerance", "10", "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)["reports"][0]["rows"]
    assert rows[0]["name"] == "algebra_valid" and rows[0]["status"] == "pass"
    assert all(r["note"] != "validation failed upstream" for r in rows)
    # ... and a trace with a zero Gram eigenvalue still fails there
    spec = {"label": "C^2, trace (1, 0)", "algebra": unfaithful_c2(), "group": "Z/2"}
    assert main(["run", write_spec(tmp_path, spec), "--tolerance", "10", "--format", "json"]) == 1
    rows = {r["name"]: r for r in json.loads(capsys.readouterr().out)["reports"][0]["rows"]}
    assert rows["algebra_valid"]["status"] == "fail"
    assert rows["algebra_valid"]["note"] == "trace not faithful: minimum Gram eigenvalue 0.000e+00"


@pytest.mark.parametrize("bad", ["nan", "inf", "-1"])
def test_cli_rejects_a_tolerance_that_is_not_finite_and_nonnegative(tmp_path, capsys, bad):
    path = write_spec(tmp_path, dict(C2_SPEC, checks=["schreier_crossed"]))
    for argv in (["run", path, f"--tolerance={bad}"], ["corpus", f"--tolerance={bad}"]):
        assert main(argv) == 2
        assert f"--tolerance={float(bad)!r} is not a finite number >= 0" in capsys.readouterr().err
    spec_path = write_spec(tmp_path, dict(C2_SPEC, tolerance=float(bad)))
    assert main(["run", spec_path]) == 2
    assert f"tolerance={float(bad)!r} is not a finite number >= 0" in capsys.readouterr().err
    with pytest.raises(SpecInvalid, match="not a finite number"):
        ExperimentSpec.from_json(dict(C2_SPEC, tolerance=float(bad)))


def test_cli_out_file_and_json(tmp_path, capsys):
    spec_path = write_spec(tmp_path, dict(C2_SPEC, checks=["schreier_crossed"]))
    out_path = tmp_path / "report.json"
    code = main(["run", spec_path, "--format", "json", "--out", str(out_path)])
    assert code == 0
    capsys.readouterr()
    payload = json.loads(out_path.read_text())
    assert payload["reports"][0]["rows"][0]["name"] == "schreier_crossed"
    assert "elapsed" not in payload["reports"][0]["rows"][0]


def test_cli_dim(tmp_path, capsys):
    alg_path = tmp_path / "alg.json"
    alg_path.write_text(json.dumps({"multimatrix": {"blocks": [[2, 1.0]]}}))
    assert main(["dim", str(alg_path)]) == 0
    out = capsys.readouterr().out
    assert "3/4" in out
    assert main(["dim", str(alg_path), "--format", "json"]) == 0
    parsed = json.loads(capsys.readouterr().out)
    assert abs(parsed["dimension"] - 0.75) < 1e-9
    # dim has no pass/fail and takes no tolerance
    with pytest.raises(SystemExit):
        main(["dim", str(alg_path), "--tolerance", "1e-8"])
    capsys.readouterr()


def test_cli_dim_json_shows_the_route_and_the_closure_residual(tmp_path, capsys):
    alg_path = tmp_path / "alg.json"
    alg_path.write_text(json.dumps({"multimatrix": {"blocks": [[2, 0.5], [1, 0.5]]}}))
    assert main(["dim", str(alg_path), "--format", "json"]) == 0
    parsed = json.loads(capsys.readouterr().out)
    assert parsed["route"] == "spectral"
    assert 0.0 <= parsed["closure_residual"] < 1e-12
    assert abs(parsed["dimension"] - 0.6875) < 1e-12


def test_python_m_steinlab_runs_the_command_line(tmp_path):
    # the module entry point, from a source checkout without installing
    alg_path = tmp_path / "alg.json"
    alg_path.write_text(json.dumps({"multimatrix": {"blocks": [[1, 0.5], [1, 0.5]]}}))
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run([sys.executable, "-m", "steinlab", "dim", str(alg_path)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "1/2" in done.stdout


def test_cli_dim_of_rotated_m4_needs_no_leibniz_system(tmp_path, capsys):
    # the Leibniz system of M4 in a basis with no zero structure is one
    # block past the dense limit; dim reads the inner module instead, and
    # so reaches rotated M8 (dim 64) too
    def pairs(a):
        return np.stack([a.real, a.imag], axis=-1).tolist()

    for n in (4, 8):
        alg = rotated(multimatrix([(n, 1.0)]), np.random.default_rng(9))
        path = tmp_path / f"rotated_m{n}.json"
        fields = {f: pairs(getattr(alg, f)) for f in ("mult", "star", "unit", "trace")}
        path.write_text(json.dumps({"dim": alg.dim, **fields}))
        assert main(["dim", str(path)]) == 0
        assert f"(= {n * n - 1}/{n * n})" in capsys.readouterr().out
        assert main(["dim", str(path), "--format", "json"]) == 0
        parsed = json.loads(capsys.readouterr().out)
        assert parsed["route"] == "spectral"
        assert parsed["rank"] == n**4 - n**2
        assert abs(parsed["dimension"] - (1 - 1 / n**2)) < 1e-12


def test_cli_dim_rejects_an_invalid_algebra(tmp_path, capsys):
    path = tmp_path / "unfaithful.json"
    path.write_text(json.dumps(unfaithful_c2()))
    assert main(["dim", str(path)]) == 2
    err = capsys.readouterr().err
    assert "algebra: trace not faithful: minimum Gram eigenvalue 0.000e+00" in err
    assert "Traceback" not in err


def test_cli_dim_rejects_seed(tmp_path, capsys):
    # dim draws only from fixed seeds, so it takes no --seed
    alg_path = tmp_path / "m2.json"
    alg_path.write_text(json.dumps({"multimatrix": {"blocks": [[2, 1.0]]}}))
    with pytest.raises(SystemExit) as exc:
        main(["dim", str(alg_path), "--seed", "5"])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err


@pytest.mark.parametrize("command, text", [
    ("run", '{"label": "cut short", '),
    ("dim", ""),
    ("run", json.dumps(dict(C2_SPEC, seed="seven"))),
    ("run", json.dumps(dict(C2_SPEC, seed=1.5))),
    ("run", json.dumps(dict(C2_SPEC, seed=-5))),
    ("run", json.dumps(dict(C2_SPEC, subgroup=[0, "one"]))),
    ("run", json.dumps(dict(C2_SPEC, subgroup=[0, 2]))),
    ("run", json.dumps(dict(C2_SPEC, subgroup=1))),
    ("run", json.dumps(dict(C2_SPEC, group="Z/0", action="trivial"))),
    ("run", json.dumps(dict(C2_SPEC, action={"name": "permutation"}))),
    ("run", json.dumps(dict(C2_SPEC, action={"name": "permutation", "perms": [[0]]}))),
    ("run", json.dumps(dict(C2_SPEC, action={"name": "permutation", "perms": "ab"}))),
    ("run", json.dumps(dict(C2_SPEC, action={"name": "permutation", "perms": [[0, 1], [2, 0]]}))),
    ("run", json.dumps(dict(C2_SPEC, action={"name": "permutation", "perms": [[0, 1], [True, 0]]}))),
    ("run", json.dumps(dict(C2_SPEC, action={"name": "ad"}))),
    ("run", json.dumps(dict(C2_SPEC, action={"name": "ad", "unitaries": [[[1, 0]]]}))),
    ("run", json.dumps(dict(C2_SPEC, alt_generators=[[[1, 0]]]))),
    ("run", json.dumps(dict(C2_SPEC, checks=5))),
    ("run", json.dumps(dict(C2_SPEC, checks="schreier_crossed"))),
], ids=["run-json", "dim-json", "seed-word", "seed-fraction", "seed-negative", "subgroup-word",
        "subgroup-range", "subgroup-not-list", "order-0", "perms-missing",
        "perms-short", "perms-string", "perms-range", "perms-boolean", "unitaries-missing",
        "unitaries-shape",
        "alt-generators-length", "checks-number", "checks-string"])
def test_cli_malformed_input_exits_2_with_one_line(tmp_path, capsys, command, text):
    path = tmp_path / "input.json"
    path.write_text(text)
    assert main([command, str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("steinlab: ") and err.count("\n") == 1


def test_cli_corpus_rejects_a_negative_seed(capsys):
    # corpus --seed never goes through a spec's from_json
    assert main(["corpus", "--seed", "-1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "steinlab: --seed=-1 is negative\n"


@pytest.mark.parametrize("blocks", [[[2, 1.0]], [[1, 1.0]]], ids=["M2", "C"])
def test_cli_runs_a_spec_over_the_trivial_group(tmp_path, capsys, blocks):
    # Z/1 has no u_s other than 1, so covariance_equivalence leaves out the
    # inner derivation moved off the vanishing space
    path = tmp_path / "z1.json"
    path.write_text(json.dumps({"algebra": {"multimatrix": {"blocks": blocks}}, "group": "Z/1"}))
    assert main(["run", str(path), "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)["reports"][0]["rows"]
    assert {row["status"] for row in rows} <= {"pass", "skipped"}
    assert next(r for r in rows if r["name"] == "covariance_equivalence")["status"] == "pass"


def test_cli_bad_input_exits_2(tmp_path, capsys):
    bogus = tmp_path / "bad.json"
    bogus.write_text(json.dumps({"algebra": {"multimatrix": {"blocks": []}},
                                 "group": "Q8"}))
    assert main(["run", str(bogus)]) == 2
    assert main(["run", str(tmp_path / "missing.json")]) == 2
    capsys.readouterr()


# -- coset projection relations ------------------------------------------------------

def _coset_row():
    spec = ExperimentSpec.from_json(dict(C2_SPEC, checks=["coset_projection_relations"]))
    return run(spec).row("coset_projection_relations")


def test_coset_projection_row_checks_the_gram_across_group_indices(monkeypatch):
    assert _coset_row().status == "pass"
    cp_stage = RunContext.cp

    def cp_with_coupled_gram(self):
        cp = cp_stage.fget(self)
        gram = cp.algebra.gram.copy()
        # basis vectors 0 and 1 have group indices e and s
        gram[0, 1] = gram[1, 0] = 1e-3
        cp.algebra.__dict__["gram"] = gram
        return cp

    monkeypatch.setattr(RunContext, "cp", property(cp_with_coupled_gram))
    row = _coset_row()
    assert row.status == "fail"
    assert row.residual >= 1e-3


def test_coset_projection_row_fails_on_a_wrong_group_index(monkeypatch):
    def blocked_index(cp):
        # b_i u_g sits at i * |G| + g; this labels by i instead
        return (np.arange(cp.algebra.dim) // cp.group.order) % cp.group.order

    monkeypatch.setattr(CrossedProduct, "group_index", property(blocked_index))
    assert _coset_row().status == "fail"


# -- central family -------------------------------------------------------------------

def test_central_family_row_fails_when_the_counts_differ(monkeypatch):
    # one more GNS-orthonormal vector, orthogonal to the central ones: the
    # family still lies in their span, so only lhs != rhs can fail the row
    central_vectors = reports.central_vectors

    def one_more(alg, sub_cols):
        q = central_vectors(alg, sub_cols)
        t = np.kron(alg.onb_factor, alg.onb_factor)
        w = np.linalg.qr(t @ q, mode="complete")[0][:, q.shape[1]]
        return np.column_stack([q, np.linalg.solve(t, w)])

    spec = ExperimentSpec.from_json(dict(C2_SPEC, checks=["central_family_orthonormal"]))
    assert run(spec).row("central_family_orthonormal").status == "pass"
    monkeypatch.setattr(reports, "central_vectors", one_more)
    row = run(spec).row("central_family_orthonormal")
    assert (row.lhs, row.rhs) == (2.0, 3.0)
    assert row.status == "fail"
    assert row.residual == 1.0


@pytest.mark.parametrize("source", ["examples/c3_s3.json", "M2+C | Z/2 | ad(diag(1,-1)+1)"])
def test_no_check_forms_a_whole_derivation_space(monkeypatch, source):
    # every check reads its spaces by kernel part or by a few columns; an
    # AssertionError is no error a row reports, so a read of the whole
    # space at once would end the run
    columns = reports.DerivationSpace.columns

    def refuse_whole(self, idx):
        if isinstance(idx, slice) and idx == slice(None):
            raise AssertionError("a check read a whole DerivationSpace")
        return columns(self, idx)

    monkeypatch.setattr(reports.DerivationSpace, "columns", refuse_whole)
    if source.endswith(".json"):
        path = Path(__file__).resolve().parent.parent / source
        spec = ExperimentSpec.from_json(json.loads(path.read_text()))
    else:
        spec = next(s for s in corpus_specs() if s.label == source)
    rows = run(spec).rows
    assert len(rows) == len(CHECKS)
    assert {row.status for row in rows} <= {"pass", "skipped"}


# -- what a run holds ----------------------------------------------------------------

def _record_owners(monkeypatch, ref) -> list:
    """ref(owner) for every FDAlgebra and crossed product made from here on."""
    owners = []
    post_init = FDAlgebra.__post_init__
    crossed = reports.crossed_product

    def record_algebra(self):
        post_init(self)
        owners.append(ref(self))

    def record_crossed(*args):
        cp = crossed(*args)
        owners.append(ref(cp))
        return cp

    monkeypatch.setattr(FDAlgebra, "__post_init__", record_algebra)
    monkeypatch.setattr(reports, "crossed_product", record_crossed)
    return owners


def _spec(label: str) -> ExperimentSpec:
    return ExperimentSpec.from_json(next(obj for obj in reports.CORPUS if obj["label"] == label))


def test_a_run_plans_each_held_factor_map_once(monkeypatch):
    # every factor map the run plans is one its owner holds: none is
    # planned twice, and none is planned and dropped
    planned = []
    init = FactorMap.__init__

    def record_plan(self, *args):
        init(self, *args)
        planned.append(self)

    monkeypatch.setattr(FactorMap, "__init__", record_plan)
    owners = _record_owners(monkeypatch, lambda owner: owner)
    run(_spec("C[Z/3] | Z/3 | dual"))
    held = []
    for owner in owners:
        fields = vars(owner)
        held += [m for m in fields.values() if isinstance(m, FactorMap)]
        held += list(fields.get("_factor_maps", {}).values())
    assert len({id(m) for m in held}) == len(held)
    assert {id(m) for m in planned} == {id(m) for m in held}
    crossed = [o for o in owners if isinstance(o, CrossedProduct)]
    kinds = {key[0] for cp in crossed for key in cp._factor_maps}
    assert kinds == {"conjugation", "extension", "expand", "restriction"}


@pytest.mark.parametrize("label", ["C[Z/3] | Z/3 | dual", "M2+C | Z/2 | ad(diag(1,-1)+1)"])
def test_no_state_outlives_a_run(monkeypatch, label):
    # the algebras and crossed products of a spec, with what they hold,
    # are freed with the spec: nothing keeps them in a module-level cache
    refs = _record_owners(monkeypatch, weakref.ref)
    spec = _spec(label)
    assert run(spec).passed
    del spec
    gc.collect()
    assert len(refs) > 3
    assert [r for r in refs if r() is not None] == []
