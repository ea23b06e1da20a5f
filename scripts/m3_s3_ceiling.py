#!/usr/bin/env python3
"""Run M3 x| S3 (dim 54) through derivation_space -> vn_dimension.

    python scripts/m3_s3_ceiling.py

S3 acts on M3 by conjugation with the permutation matrices, so
M3 x| S3 = M3 (x) C[S3] = M3 + M3 + M6 with weights 1/6, 1/6, 2/3, and
dim Der = 1 - 1/54. This is the largest algebra whose Leibniz system the
dense block solver takes within _linalg.DENSE_LIMIT. The value is read
twice: at X the basis, from the kernel as it is, and at X the basis
elements alg.generating_indices, through the argument map on the kernel's
entries. The script prints both values, their errors, the seconds and the
peak RSS, and exits 1 unless each value is within TOL of 1 - 1/54, the run
takes under MAX_SECONDS and the process's maximum RSS stays under
MAX_RSS_BYTES.
"""

import itertools
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

from _bounds import finish, limits_missed, max_rss, value_missed

TOL = 1e-10
MAX_SECONDS = 60.0
MAX_RSS_BYTES = 6 * 10**8
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


def failures(values: dict, seconds: float, rss: int) -> list[str]:
    """The bounds a run missed, one line each; values maps the name of
    each argument set X to its value."""
    out = []
    for name, value in values.items():
        out += value_missed(value, EXPECTED, TOL, f"1 - 1/54 at X {name}")
    return out + limits_missed(seconds, MAX_SECONDS, rss, MAX_RSS_BYTES)


def main() -> int:
    alg = m3_s3().algebra
    gens = np.eye(alg.dim, dtype=complex)[:, alg.generating_indices]
    start = time.perf_counter()
    space = derivation_space(alg)
    values = {"the basis": vn_dimension(phi_x(space)).value,
              "the generators": vn_dimension(phi_x(space, gens)).value}
    seconds = time.perf_counter() - start
    rss = max_rss()
    errors = ", ".join(f"{abs(v - EXPECTED):.3e} at X {name}" for name, v in values.items())
    summary = (f"M3 x| S3: dim Der = {values['the basis']!r}, |error| = {errors}, "
               f"{seconds:.1f} s, max RSS {rss / 1e6:.0f} MB")
    return finish(summary, failures(values, seconds, rss))


if __name__ == "__main__":
    sys.exit(main())
