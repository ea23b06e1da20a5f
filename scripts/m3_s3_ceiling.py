#!/usr/bin/env python3
"""Run M3 x| S3 (dim 54) through derivation_space -> vn_dimension.

    python scripts/m3_s3_ceiling.py

S3 acts on M3 by conjugation with the permutation matrices, so
M3 x| S3 = M3 (x) C[S3] = M3 + M3 + M6 with weights 1/6, 1/6, 2/3, and
dim Der = 1 - 1/54. This is the largest algebra whose Leibniz system the
dense block solver takes within _linalg.DENSE_LIMIT. The script prints the
value, its error, the seconds and the peak RSS, and exits 1 unless the
value is within TOL of 1 - 1/54, the run takes under MAX_SECONDS and the
process's maximum RSS stays under MAX_RSS_BYTES.
"""

import itertools
import resource
import sys
import time

import numpy as np

from steinlab import (
    ad_action,
    crossed_product,
    derivation_space,
    matrix_units,
    multimatrix,
    phi_x,
    symmetric_3,
    vn_dimension,
)

TOL = 1e-10
MAX_SECONDS = 60.0
MAX_RSS_BYTES = 2 * 10**9
EXPECTED = 1 - 1 / 54


def m3_s3():
    """The crossed product M3 x| S3, S3 acting by Ad of the permutation
    matrices, whose elements are the permutations of (0, 1, 2) in
    symmetric_3's table order."""
    m3 = multimatrix([(3, 1.0)], label="M3")
    units = matrix_units([(3, 1.0)])[0]
    perms = itertools.permutations(range(3))
    unitaries = np.stack([sum(units[p[k], k] for k in range(3)) for p in perms])
    return crossed_product(m3, ad_action(symmetric_3(), m3, unitaries))


def failures(value: float, seconds: float, max_rss: int) -> list[str]:
    """The bounds a run missed, one line each."""
    out = []
    if not abs(value - EXPECTED) <= TOL:
        out.append(f"value {value!r} misses 1 - 1/54 by {abs(value - EXPECTED):.3e} > {TOL:g}")
    if not seconds < MAX_SECONDS:
        out.append(f"took {seconds:.1f} s, not under {MAX_SECONDS:g} s")
    if not max_rss < MAX_RSS_BYTES:
        out.append(f"max RSS {max_rss / 1e9:.2f} GB, not under {MAX_RSS_BYTES / 1e9:g} GB")
    return out


def main() -> int:
    alg = m3_s3().algebra
    start = time.perf_counter()
    value = vn_dimension(phi_x(derivation_space(alg))).value
    seconds = time.perf_counter() - start
    # ru_maxrss is in KiB on Linux
    max_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    print(f"M3 x| S3: dim Der = {value!r}, |error| = {abs(value - EXPECTED):.3e}, "
          f"{seconds:.1f} s, max RSS {max_rss / 1e9:.2f} GB")
    missed = failures(value, seconds, max_rss)
    for line in missed:
        print(line)
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
