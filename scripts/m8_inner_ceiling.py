#!/usr/bin/env python3
"""Run M8 (dim 64) through inner_derivation_module -> vn_dimension.

    python scripts/m8_inner_ceiling.py

The inner path reaches algebras whose Leibniz blocks exceed the dense
limit. Each leg of M8 splits into one class of 8 clusters of size 8, so
its module is one class pair of 64 blocks (192 x 64), whose bases are
built and cut one row of 8 blocks at a time and held once (12 MiB), and
the closure test projects one source cluster's image onto one target
cluster's slab of 8 blocks at a time. dim Der(M8) = 1 - 1/64. The
script prints the value, its error, the seconds and the peak RSS, and
exits 1 unless the value is within TOL of 1 - 1/64, the run takes under
MAX_SECONDS and the process's maximum RSS stays under MAX_RSS_BYTES,
which tracemalloc does not see.
"""

import sys
import time

from steinlab import inner_derivation_module, multimatrix, multimatrix_generators, vn_dimension

from _bounds import finish, limits_missed, max_rss, value_missed

TOL = 1e-10
MAX_SECONDS = 20.0
# a run reads 70-72 MB of max RSS (2 cores, OpenBLAS), about 32 MB of it
# the imports; the bound leaves 28 MB for other BLAS builds and hosts
MAX_RSS_BYTES = 100 * 10**6
EXPECTED = 1 - 1 / 64
BLOCKS = [(8, 1.0)]


def failures(value: float, seconds: float, rss: int) -> list[str]:
    """The bounds a run missed, one line each."""
    return (value_missed(value, EXPECTED, TOL, "1 - 1/64")
            + limits_missed(seconds, MAX_SECONDS, rss, MAX_RSS_BYTES))


def main() -> int:
    alg, gens = multimatrix(BLOCKS), multimatrix_generators(BLOCKS)
    start = time.perf_counter()
    value = vn_dimension(inner_derivation_module(alg, gens)).value
    seconds = time.perf_counter() - start
    rss = max_rss()
    summary = (f"M8: dim Der = {value!r}, |error| = {abs(value - EXPECTED):.3e}, "
               f"{seconds:.1f} s, max RSS {rss / 1e6:.0f} MB")
    return finish(summary, failures(value, seconds, rss))


if __name__ == "__main__":
    sys.exit(main())
