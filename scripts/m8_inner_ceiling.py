#!/usr/bin/env python3
"""Run M8 (dim 64) through inner_derivation_module -> vn_dimension, and a
rotated M8 through the call `steinlab dim` makes; or, in the mode at_s,
matrix-unit M8 through that call.

    python scripts/m8_inner_ceiling.py          # M8 and rotated M8
    python scripts/m8_inner_ceiling.py at_s     # M8 at its S

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

The mode at_s reads matrix-unit M8 at its generating basis elements S
(15 of them, in an arrow pattern), as `steinlab dim` reads it. The
algebra's own spectral split gives each leg 8 clusters of 8 whatever the
argument set, so the module is 64 blocks of 960 x 64 (60 MiB); a split by
the operators of S gave each leg one cluster of 48, whose blocks failed to
allocate a 1.19 GiB array. It has its own bounds in MAX_SECONDS and
MAX_RSS_BYTES.
"""

import argparse
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
# a run of both takes 1.0-1.3 s, one at S 0.9-1.0 s (2 cores, 1 BLAS thread)
MAX_SECONDS = {"both": 10.0, "at_s": 5.0}
# a run of both reads 71-74 MB of max RSS (2 cores, OpenBLAS), about 32 MB
# of it the imports; the bound leaves 27 MB for other BLAS builds and hosts.
# A run at S reads 153-155 MB, 63 MB of it the block bases; its bound
# leaves 45 MB
MAX_RSS_BYTES = {"both": 100 * 10**6, "at_s": 200 * 10**6}
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


def failures(values: dict, seconds: float, rss: int, mode: str = "both") -> list[str]:
    """The bounds a run of the mode missed, one line each; values maps
    the name of each algebra to its value."""
    out = []
    for name, value in values.items():
        out += value_missed(value, EXPECTED, TOL, f"1 - 1/64 for {name}")
    return out + limits_missed(seconds, MAX_SECONDS[mode], rss, MAX_RSS_BYTES[mode])


def at_s(alg: FDAlgebra) -> float:
    """dim Der(alg) as `steinlab dim` reads it: the inner module at the
    generating basis elements S."""
    gens = np.eye(alg.dim, dtype=complex)[:, alg.generating_indices]
    return vn_dimension(inner_derivation_module(alg, gens)).value


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Read dim Der(M8) through the inner path.")
    parser.add_argument("mode", nargs="?", default="both", choices=MAX_SECONDS)
    mode = parser.parse_args(argv).mode
    alg = multimatrix(BLOCKS)
    rot = rotated_m8() if mode == "both" else None
    start = time.perf_counter()
    if mode == "at_s":
        values = {"M8 at S": at_s(alg)}
    else:
        gens = multimatrix_generators(BLOCKS)
        values = {"M8": vn_dimension(inner_derivation_module(alg, gens)).value,
                  "rotated M8": at_s(rot)}
    seconds = time.perf_counter() - start
    rss = max_rss()
    errors = ", ".join(f"{abs(v - EXPECTED):.3e} for {name}" for name, v in values.items())
    summary = (f"M8: dim Der = {next(iter(values.values()))!r}, |error| = {errors}, "
               f"{seconds:.1f} s, max RSS {rss / 1e6:.0f} MB")
    return finish(summary, failures(values, seconds, rss, mode))


if __name__ == "__main__":
    sys.exit(main())
