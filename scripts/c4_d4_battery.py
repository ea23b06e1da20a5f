#!/usr/bin/env python3
"""Run the whole report battery on C^4 x| D4 (dim 32).

    python scripts/c4_d4_battery.py

D4, the symmetries of the square, acts on C^4 (weights 1/4) by permuting
the vertices: the element a + 4b of dihedral_4 (r^a s^b) sends vertex q to
a + q mod 4 for b = 0 and to a - q mod 4 for b = 1. The action is free and
transitive, so C^4 x| D4 = M4 + M4 and dim Der = 31/32; the subgroup
{0, 1, 2, 3} is the rotations, Z/4. The script prints each row's status,
the seconds and the peak RSS, and exits 1 unless PASSED rows pass and
SKIPPED are skipped, the battery takes under MAX_SECONDS and the
process's maximum RSS stays under MAX_RSS_BYTES.
"""

import resource
import sys
import time

from steinlab import (
    ExperimentSpec,
    dihedral_4,
    multimatrix,
    permutation_action,
    run,
)

PASSED = 18
SKIPPED = 3
MAX_SECONDS = 20.0
MAX_RSS_BYTES = 500 * 10**6


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


def failures(statuses: list[str], seconds: float, max_rss: int) -> list[str]:
    """The bounds a run missed, one line each."""
    out = []
    counts = (statuses.count("pass"), statuses.count("skipped"))
    if counts != (PASSED, SKIPPED) or len(statuses) != PASSED + SKIPPED:
        out.append(f"rows {counts[0]} passed and {counts[1]} skipped of {len(statuses)}, "
                   f"not {PASSED} and {SKIPPED} of {PASSED + SKIPPED}")
    if not seconds < MAX_SECONDS:
        out.append(f"took {seconds:.1f} s, not under {MAX_SECONDS:g} s")
    if not max_rss < MAX_RSS_BYTES:
        out.append(f"max RSS {max_rss / 1e6:.0f} MB, not under {MAX_RSS_BYTES / 1e6:g} MB")
    return out


def main() -> int:
    spec = c4_d4_spec()
    start = time.perf_counter()
    report = run(spec)
    seconds = time.perf_counter() - start
    # ru_maxrss is in KiB on Linux
    max_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    for row in report.rows:
        print(f"{row.name}: {row.status} {row.note}".rstrip())
    print(f"C^4 x| D4: {seconds:.1f} s, max RSS {max_rss / 1e6:.0f} MB")
    missed = failures([row.status for row in report.rows], seconds, max_rss)
    for line in missed:
        print(line)
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
