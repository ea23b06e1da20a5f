#!/usr/bin/env python3
"""Run M8 (dim 64) through inner_derivation_module -> vn_dimension.

    python scripts/m8_inner_ceiling.py

The inner path reaches algebras whose Leibniz blocks exceed the dense
limit. Each leg of M8 splits into one class of 8 clusters of size 8, so
its module is one class pair of 64 blocks (192 x 64), and the closure
test projects one target cluster's slab of 8 blocks at a time.
dim Der(M8) = 1 - 1/64. The script prints the value, its error, the
seconds and the peak RSS, and exits 1 unless the value is within TOL of
1 - 1/64, the run takes under MAX_SECONDS and the process's maximum RSS
stays under MAX_RSS_BYTES, which tracemalloc does not see.
"""

import resource
import sys
import time

from steinlab import inner_derivation_module, multimatrix, multimatrix_generators, vn_dimension

TOL = 1e-10
MAX_SECONDS = 20.0
MAX_RSS_BYTES = 200 * 10**6
EXPECTED = 1 - 1 / 64
BLOCKS = [(8, 1.0)]


def failures(value: float, seconds: float, max_rss: int) -> list[str]:
    """The bounds a run missed, one line each."""
    out = []
    if not abs(value - EXPECTED) <= TOL:
        out.append(f"value {value!r} misses 1 - 1/64 by {abs(value - EXPECTED):.3e} > {TOL:g}")
    if not seconds < MAX_SECONDS:
        out.append(f"took {seconds:.1f} s, not under {MAX_SECONDS:g} s")
    if not max_rss < MAX_RSS_BYTES:
        out.append(f"max RSS {max_rss / 1e6:.0f} MB, not under {MAX_RSS_BYTES / 1e6:g} MB")
    return out


def main() -> int:
    alg, gens = multimatrix(BLOCKS), multimatrix_generators(BLOCKS)
    start = time.perf_counter()
    value = vn_dimension(inner_derivation_module(alg, gens)).value
    seconds = time.perf_counter() - start
    # ru_maxrss is in KiB on Linux
    max_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    print(f"M8: dim Der = {value!r}, |error| = {abs(value - EXPECTED):.3e}, "
          f"{seconds:.1f} s, max RSS {max_rss / 1e6:.0f} MB")
    missed = failures(value, seconds, max_rss)
    for line in missed:
        print(line)
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
