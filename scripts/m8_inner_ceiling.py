#!/usr/bin/env python3
"""Run M8 (dim 64) through inner_derivation_module -> vn_dimension, and a
rotated M8 through the call `steinlab dim` makes.

    python scripts/m8_inner_ceiling.py

The inner path reaches algebras whose Leibniz blocks exceed the dense
limit. Each leg of M8 splits into one class of 8 clusters of size 8, so
its module is one class pair of 64 blocks (192 x 64), whose bases are
built and cut one row of 8 blocks at a time and held once (12 MiB), and
the closure test applies each of its operators to one random vector of
the module. dim Der(M8) = 1 - 1/64. M8 is read
at multimatrix_generators; the rotated M8, M8 in the basis of a seeded
random unitary, whose structure constants have no zero pattern, is read
as `steinlab dim` reads an algebra given by its constants: at X the basis
elements alg.generating_indices. The script prints both values, their
errors, the seconds and the peak RSS, and exits 1 unless each value is
within TOL of 1 - 1/64, the two runs take under MAX_SECONDS together and
the process's maximum RSS stays under MAX_RSS_BYTES, which tracemalloc
does not see.
"""

import sys
import time

import numpy as np

from steinlab import (
    FDAlgebra,
    inner_derivation_module,
    multimatrix,
    multimatrix_generators,
    vn_dimension,
)

from _bounds import finish, limits_missed, max_rss, value_missed

TOL = 1e-10
MAX_SECONDS = 10.0
# a run of both reads 71-73 MB of max RSS (2 cores, OpenBLAS), about 32 MB
# of it the imports; the bound leaves 27 MB for other BLAS builds and hosts
MAX_RSS_BYTES = 100 * 10**6
EXPECTED = 1 - 1 / 64
BLOCKS = [(8, 1.0)]


def rotated_m8() -> FDAlgebra:
    """M8 in the basis b'_i = sum_a u[a, i] b_a for a random unitary u
    drawn from seed 9."""
    alg = multimatrix(BLOCKS)
    rng = np.random.default_rng(9)
    z = rng.standard_normal((2, alg.dim, alg.dim))
    u = np.linalg.qr(z[0] + 1j * z[1])[0]
    ui = u.conj().T
    mult = np.einsum("ai,bj,abc,kc->ijk", u, u, alg.mult, ui, optimize=True)
    return FDAlgebra(alg.dim, mult, ui @ alg.star @ np.conj(u), ui @ alg.unit, alg.trace @ u,
                     label="M8 rotated")


def failures(values: dict, seconds: float, rss: int) -> list[str]:
    """The bounds a run missed, one line each; values maps the name of
    each algebra to its value."""
    out = []
    for name, value in values.items():
        out += value_missed(value, EXPECTED, TOL, f"1 - 1/64 for {name}")
    return out + limits_missed(seconds, MAX_SECONDS, rss, MAX_RSS_BYTES)


def main() -> int:
    alg, rot = multimatrix(BLOCKS), rotated_m8()
    start = time.perf_counter()
    gens = multimatrix_generators(BLOCKS)
    values = {"M8": vn_dimension(inner_derivation_module(alg, gens)).value}
    # as `steinlab dim` reads it
    gens = np.eye(rot.dim, dtype=complex)[:, rot.generating_indices]
    values["rotated M8"] = vn_dimension(inner_derivation_module(rot, gens)).value
    seconds = time.perf_counter() - start
    rss = max_rss()
    errors = ", ".join(f"{abs(v - EXPECTED):.3e} for {name}" for name, v in values.items())
    summary = (f"M8: dim Der = {values['M8']!r}, |error| = {errors}, "
               f"{seconds:.1f} s, max RSS {rss / 1e6:.0f} MB")
    return finish(summary, failures(values, seconds, rss))


if __name__ == "__main__":
    sys.exit(main())
