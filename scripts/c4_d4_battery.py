#!/usr/bin/env python3
"""Run the whole report battery on C^4 x| D4 (dim 32) or M3 x| S3 (dim 54).

    python scripts/c4_d4_battery.py [c4_d4 | m3_s3]

C^4 x| D4, the default: D4, the symmetries of the square, acts on C^4
(weights 1/4) by permuting the vertices: the element a + 4b of dihedral_4
(r^a s^b) sends vertex q to a + q mod 4 for b = 0 and to a - q mod 4 for
b = 1. The action is free and transitive, so C^4 x| D4 = M4 + M4 and
dim Der = 31/32; the subgroup {0, 1, 2, 3} is the rotations, Z/4.

M3 x| S3: S3 acts on M3 by Ad of the permutation matrices, as in
m3_s3_ceiling.py, so M3 x| S3 = M3 + M3 + M6 and dim Der = 1 - 1/54; the
subgroup {0, 3, 4} is the 3-cycles with the identity, A3.

The script prints each row's status, the seconds and the peak RSS, and
exits 1 unless PASSED rows pass and SKIPPED are skipped, the battery takes
under the spec's MAX_SECONDS and the process's maximum RSS stays under its
MAX_RSS_BYTES.
"""

import argparse
import sys
import time

from steinlab import (
    ExperimentSpec,
    dihedral_4,
    multimatrix,
    permutation_action,
    run,
)

from _bounds import finish, limits_missed, max_rss
from m3_s3_ceiling import m3_s3

PASSED = 18
SKIPPED = 3
# the C^4 x| D4 battery reads 2-3 s at 180 MB, the M3 x| S3 battery
# 22 s at 369 MB, derivation_space's peak (2 cores, OpenBLAS, 1 thread)
MAX_SECONDS = {"c4_d4": 20.0, "m3_s3": 60.0}
MAX_RSS_BYTES = {"c4_d4": 500 * 10**6, "m3_s3": 6 * 10**8}


def c4_d4_spec() -> ExperimentSpec:
    """The C^4 x| D4 spec, with the rotations as its subgroup."""
    blocks = [(1, 0.25)] * 4
    c4 = multimatrix(blocks, label="C^4")
    d4 = dihedral_4()
    perms = [[(a + (q if b == 0 else -q)) % 4 for q in range(4)]
             for b in range(2) for a in range(4)]
    return ExperimentSpec(
        label="C^4 | D4 | square", algebra=c4, group=d4,
        action=permutation_action(d4, c4, perms), blocks=blocks, subgroup=[0, 1, 2, 3],
    )


def m3_s3_spec() -> ExperimentSpec:
    """The M3 x| S3 spec of m3_s3_ceiling.py, with A3 as its subgroup."""
    cp = m3_s3()
    return ExperimentSpec(
        label="M3 | S3 | Ad permutations", algebra=cp.base, group=cp.group,
        action=cp.action, blocks=[(3, 1.0)], subgroup=[0, 3, 4],
    )


SPECS = {"c4_d4": c4_d4_spec, "m3_s3": m3_s3_spec}


def failures(statuses: list[str], seconds: float, rss: int, name: str = "c4_d4") -> list[str]:
    """The bounds a run of the spec name missed, one line each."""
    out = []
    counts = (statuses.count("pass"), statuses.count("skipped"))
    if counts != (PASSED, SKIPPED) or len(statuses) != PASSED + SKIPPED:
        out.append(f"rows {counts[0]} passed and {counts[1]} skipped of {len(statuses)}, "
                   f"not {PASSED} and {SKIPPED} of {PASSED + SKIPPED}")
    return out + limits_missed(seconds, MAX_SECONDS[name], rss, MAX_RSS_BYTES[name])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run the report battery on one crossed product.")
    parser.add_argument("spec", nargs="?", default="c4_d4", choices=SPECS)
    name = parser.parse_args(argv).spec
    spec = SPECS[name]()
    start = time.perf_counter()
    report = run(spec)
    seconds = time.perf_counter() - start
    rss = max_rss()
    for row in report.rows:
        print(f"{row.name}: {row.status} {row.note}".rstrip())
    summary = f"{spec.label}: {seconds:.1f} s, max RSS {rss / 1e6:.0f} MB"
    return finish(summary, failures([row.status for row in report.rows], seconds, rss, name))


if __name__ == "__main__":
    sys.exit(main())
