#!/usr/bin/env python3
"""Compare two JSON reports of `steinlab run` or `steinlab corpus`.

    python scripts/report_diff.py A.json B.json

The reports must agree in structure: the same report labels, seeds,
tolerances and verdicts, and per row the same name, status, statement,
note and fractions, with a value on both sides or on neither. Every
structural mismatch is printed. Then the largest |B - A| of lhs, rhs and
residual over all rows is printed.

Exit status: 0 when the structure agrees, 1 on any mismatch, 2 on a wrong
number of arguments.
"""

import json
import math
import sys
from pathlib import Path

REPORT_FIELDS = ("label", "seed", "tolerance", "passed")
ROW_FIELDS = ("name", "status", "statement", "note", "lhs_fraction", "rhs_fraction")
VALUES = ("lhs", "rhs", "residual")


def _delta(a, b) -> float | None:
    """|b - a| for two numbers (0 for two NaNs), None if only one is set."""
    if a is None or b is None:
        return None if (a is None) != (b is None) else 0.0
    if math.isnan(a) and math.isnan(b):
        return 0.0
    return abs(b - a)


def compare(old: dict, new: dict) -> tuple[list[str], dict[str, float]]:
    """The structural mismatches and the largest |delta| of each value."""
    faults: list[str] = []
    worst = dict.fromkeys(VALUES, 0.0)
    if len(old["reports"]) != len(new["reports"]):
        faults.append(f"{len(old['reports'])} reports against {len(new['reports'])}")
    for ra, rb in zip(old["reports"], new["reports"]):
        where = ra["label"]
        faults += [f"{where}: {f} {ra[f]!r} != {rb[f]!r}" for f in REPORT_FIELDS if ra[f] != rb[f]]
        if len(ra["rows"]) != len(rb["rows"]):
            faults.append(f"{where}: {len(ra['rows'])} rows against {len(rb['rows'])}")
        for a, b in zip(ra["rows"], rb["rows"]):
            at = f"{where} / {a['name']}"
            faults += [f"{at}: {f} {a[f]!r} != {b[f]!r}" for f in ROW_FIELDS if a[f] != b[f]]
            for f in VALUES:
                d = _delta(a[f], b[f])
                if d is None:
                    faults.append(f"{at}: {f} {a[f]!r} != {b[f]!r}")
                else:
                    worst[f] = max(worst[f], d)
    return faults, worst


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: report_diff.py A.json B.json", file=sys.stderr)
        return 2
    old, new = (json.loads(Path(path).read_text()) for path in args)
    faults, worst = compare(old, new)
    for line in faults:
        print(line)
    print(", ".join(f"max |d {f}| = {worst[f]:.3e}" for f in VALUES))
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
