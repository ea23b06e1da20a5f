"""Bound reporting shared by the ceiling and battery scripts.

Each script measures a run, lists the bounds it missed (one line each,
from value_missed and limits_missed) and ends through finish, which prints
the run's summary and those lines and gives the exit code.
"""

import resource


def max_rss() -> int:
    """The process's maximum RSS so far, in bytes."""
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def value_missed(value: float, expected: float, tol: float, name: str) -> list[str]:
    """A line if value is not within tol of expected, whose name is name."""
    if abs(value - expected) <= tol:
        return []
    return [f"value {value!r} misses {name} by {abs(value - expected):.3e} > {tol:g}"]


def limits_missed(seconds: float, max_seconds: float, rss: int, max_rss_bytes: int) -> list[str]:
    """A line for each of the time and max RSS bounds that a run missed."""
    out = []
    if not seconds < max_seconds:
        out.append(f"took {seconds:.1f} s, not under {max_seconds:g} s")
    if not rss < max_rss_bytes:
        out.append(f"max RSS {rss / 1e6:.0f} MB, not under {max_rss_bytes / 1e6:g} MB")
    return out


def finish(summary: str, missed: list[str]) -> int:
    """Print the summary and the missed bounds; the exit code, 1 if any
    bound was missed."""
    print(summary)
    for line in missed:
        print(line)
    return 1 if missed else 0
