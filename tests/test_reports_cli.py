import json

import numpy as np
import pytest

from steinlab import GroupAction, SpecInvalid, cyclic, multimatrix, reports
from steinlab.cli import main
from steinlab.reports import (
    CHECKS,
    ExperimentSpec,
    RunContext,
    parse_action,
    parse_algebra,
    parse_group,
    run,
)

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


def test_spec_rejects_unknown_checks():
    payload = dict(C2_SPEC, checks=["schreier_crossed", "nonsense"])
    with pytest.raises(SpecInvalid):
        ExperimentSpec.from_json(payload)


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

    def failing_space(alg, gens=None, bim=None):
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
    monkeypatch.setattr(RunContext, "_get", lambda self, key, fn: fn())
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


def test_json_round_trip_and_stability(corpus_reports):
    text = reports.to_json(corpus_reports)
    parsed = json.loads(text)
    assert len(parsed["reports"]) == len(corpus_reports)
    again = reports.to_json(reports.run_corpus(seed=7))
    assert text == again


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
    assert code == 1
    # the tolerance bounds |lhs - rhs| only; the closure test keeps its own
    # threshold, so both sides are still computed
    assert [r["name"] for r in rows] == ["multimatrix_formula", "schreier_crossed"]
    for r in rows:
        assert all(isinstance(r[f], float) for f in ("lhs", "rhs", "residual"))
        assert r["note"] == ""


def test_cli_env_tolerance(tmp_path, capsys, monkeypatch):
    path = write_spec(tmp_path, dict(C2_SPEC, checks=["schreier_crossed"]))
    monkeypatch.setenv("STEINLAB_TOL", "1e-30")
    assert main(["run", path]) == 1
    capsys.readouterr()
    # an explicit flag beats the environment
    assert main(["run", path, "--tolerance", "1e-8"]) == 0
    capsys.readouterr()


def test_cli_out_file_and_json(tmp_path, capsys):
    spec_path = write_spec(tmp_path, dict(C2_SPEC, checks=["schreier_crossed"]))
    out_path = tmp_path / "report.json"
    code = main(["run", spec_path, "--format", "json", "--out", str(out_path)])
    assert code == 0
    capsys.readouterr()
    payload = json.loads(out_path.read_text())
    assert payload["reports"][0]["rows"][0]["name"] == "schreier_crossed"
    assert "elapsed" not in payload["reports"][0]["rows"][0]


def test_cli_dim(tmp_path, capsys, monkeypatch):
    alg_path = tmp_path / "alg.json"
    alg_path.write_text(json.dumps({"multimatrix": {"blocks": [[2, 1.0]]}}))
    assert main(["dim", str(alg_path)]) == 0
    out = capsys.readouterr().out
    assert "3/4" in out
    assert main(["dim", str(alg_path), "--format", "json"]) == 0
    parsed = json.loads(capsys.readouterr().out)
    assert abs(parsed["dimension"] - 0.75) < 1e-9
    # dim has no pass/fail, so the tolerance setting is not read
    monkeypatch.setenv("STEINLAB_TOL", "loose")
    assert main(["dim", str(alg_path)]) == 0
    assert "3/4" in capsys.readouterr().out
    with pytest.raises(SystemExit):
        main(["dim", str(alg_path), "--tolerance", "1e-8"])
    capsys.readouterr()


def test_cli_dim_rejects_seed(tmp_path, capsys):
    # dim uses no randomness, so it takes no --seed
    alg_path = tmp_path / "m2.json"
    alg_path.write_text(json.dumps({"multimatrix": {"blocks": [[2, 1.0]]}}))
    with pytest.raises(SystemExit) as exc:
        main(["dim", str(alg_path), "--seed", "5"])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err


def test_cli_bad_input_exits_2(tmp_path, capsys):
    bogus = tmp_path / "bad.json"
    bogus.write_text(json.dumps({"algebra": {"multimatrix": {"blocks": []}},
                                 "group": "Q8"}))
    assert main(["run", str(bogus)]) == 2
    assert main(["run", str(tmp_path / "missing.json")]) == 2
    capsys.readouterr()
