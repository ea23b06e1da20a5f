import copy
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np

from steinlab import reports, validate
from steinlab.constructions import validate_action
from steinlab.reports import ExperimentSpec

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
GOLDEN = Path(__file__).resolve().parent / "golden"


def load(name: str):
    # the scripts import their shared helpers from their own directory, as
    # it is when they run
    if str(SCRIPTS) not in sys.path:
        sys.path.append(str(SCRIPTS))
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_schreier_table_runs(capsys):
    script = load("schreier_table")
    assert script.main() == 0
    last = capsys.readouterr().out.strip().splitlines()[-1]
    assert last.startswith("worst |lhs - rhs| = ")
    assert float(last.rpartition("=")[2]) < 1e-7


def test_report_diff_flags_an_altered_row(tmp_path, capsys):
    script = load("report_diff")
    spec = ExperimentSpec.from_json({
        "label": "swap",
        "algebra": {"multimatrix": {"blocks": [[1, 0.5], [1, 0.5]]}},
        "group": "Z/2",
        "action": {"name": "permutation", "perms": [[0, 1], [1, 0]]},
        "checks": ["algebra_valid", "schreier_crossed"],
    })
    payload = json.loads(reports.to_json([reports.run(spec)]))

    def diff(new: dict) -> tuple[int, list[str]]:
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path, obj in zip(paths, (payload, new)):
            path.write_text(json.dumps(obj))
        code = script.main([str(p) for p in paths])
        return code, capsys.readouterr().out.strip().splitlines()

    code, out = diff(payload)
    assert code == 0
    assert out == ["max |d lhs| = 0.000e+00, max |d rhs| = 0.000e+00, max |d residual| = 0.000e+00"]

    # a moved value is reported, not a mismatch
    moved = copy.deepcopy(payload)
    moved["reports"][0]["rows"][1]["residual"] += 2.0**-40
    code, out = diff(moved)
    assert code == 0
    assert out == [f"max |d lhs| = 0.000e+00, max |d rhs| = 0.000e+00, max |d residual| = {2.0**-40:.3e}"]

    # one altered row is a structural mismatch
    altered = copy.deepcopy(payload)
    altered["reports"][0]["rows"][1]["status"] = "fail"
    code, out = diff(altered)
    assert code == 1
    assert out[0] == "swap / schreier_crossed: status 'pass' != 'fail'"


def test_corpus_matches_the_golden_report():
    # golden/corpus_seed0.json is `steinlab corpus --seed 0 --format json`
    # of an earlier revision: the same verdicts, and values moved by
    # rounding at most
    golden = json.loads((GOLDEN / "corpus_seed0.json").read_text())
    new = json.loads(reports.to_json(reports.run_corpus(seed=0)))
    faults, worst = load("report_diff").compare(golden, new)
    assert faults == []
    assert max(worst.values()) <= 1e-12


def test_m3_s3_ceiling_checks_its_bounds():
    script = load("m3_s3_ceiling")
    cp = script.m3_s3()
    assert cp.algebra.dim == 54
    assert max(validate_action(cp.action).values()) == 0.0
    exact = {"the basis": 1 - 1 / 54, "the generators": 1 - 1 / 54}
    assert script.failures(exact, 10.0, 4 * 10**8) == []
    assert script.failures(exact, 59.9, 599 * 10**6) == []
    missed = script.failures({**exact, "the generators": 1 - 1 / 54 + 1e-9}, 60.0, 6 * 10**8)
    assert [line.split()[0] for line in missed] == ["value", "took", "max"]
    assert "at X the generators" in missed[0]


def test_c4_d4_battery_checks_its_bounds():
    script = load("c4_d4_battery")
    spec = script.c4_d4_spec()
    assert (spec.algebra.dim, spec.group.order) == (4, 8)
    assert max(validate_action(spec.action).values()) == 0.0
    rows = ["pass"] * 18 + ["skipped"] * 3
    assert script.failures(rows, 4.0, 340 * 10**6) == []
    assert script.failures(rows, 19.9, 499 * 10**6) == []
    missed = script.failures(rows[1:] + ["fail"], 20.0, 500 * 10**6)
    assert [line.split()[0] for line in missed] == ["rows", "took", "max"]
    assert script.failures(rows[:-1], 1.0, 10**6) != []
    # the M3 x| S3 battery, with the bounds of the M3 x| S3 ceiling
    spec = script.SPECS["m3_s3"]()
    assert (spec.algebra.dim, spec.group.order, spec.subgroup) == (9, 6, [0, 3, 4])
    assert script.failures(rows, 51.0, 430 * 10**6, "m3_s3") == []
    assert script.failures(rows, 59.9, 599 * 10**6, "m3_s3") == []
    missed = script.failures(rows[1:] + ["fail"], 60.0, 6 * 10**8, "m3_s3")
    assert [line.split()[0] for line in missed] == ["rows", "took", "max"]


def test_m8_inner_ceiling_checks_its_bounds():
    script = load("m8_inner_ceiling")
    rot = script.rotated_m8()
    assert rot.dim == 64
    assert validate(rot).passed
    # no zero pattern: every structure constant is nonzero
    assert np.count_nonzero(rot.mult) == 64**3
    exact = {"M8": 1 - 1 / 64, "rotated M8": 1 - 1 / 64}
    assert script.failures(exact, 1.0, 72 * 10**6) == []
    near = {name: value + 1e-11 for name, value in exact.items()}
    assert script.failures(near, 9.9, 99 * 10**6) == []
    missed = script.failures({**exact, "rotated M8": 1 - 1 / 64 + 1e-9}, 10.0, 100 * 10**6)
    assert [line.split()[0] for line in missed] == ["value", "took", "max"]
    assert "for rotated M8" in missed[0]


def test_code_lines_leaves_out_docstrings_comments_and_blank_lines(tmp_path, capsys):
    source = '''"""Module docstring,
over two lines."""

import math  # a comment after code counts


# a comment alone
class A:
    """Class docstring."""

    x = """a string that is
not a docstring"""

    def f(self, y):
        """Function docstring."""
        return math.sqrt(
            y)
'''
    path = tmp_path / "mod.py"
    path.write_text(source)
    script = load("code_lines")
    # import, class, x (two lines), def, return (two lines)
    assert script.code_lines(source) == 7
    assert script.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == ["     7  mod.py", "     7  total"]
