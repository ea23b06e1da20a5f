#!/usr/bin/env python3
"""Tabulate dim Der(A x| G) against the index formula 1 + (dim Der(A) - 1) / |G|.

Prints one row per (algebra, group, action) instance: both sides, the
rational value when one is recognized, and the crossed product's block
structure as a sanity anchor.
"""

import sys

import numpy as np

from steinlab import (
    ad_action,
    as_fraction,
    crossed_product,
    cyclic,
    derivation_space,
    dual_action,
    group_algebra,
    multimatrix,
    multimatrix_decompose,
    permutation_action,
    phi_x,
    symmetric_3,
    trivial_action,
    vn_dimension,
)


def dim_der(alg) -> float:
    """Dimension of the derivation space from the solved Leibniz kernel."""
    return vn_dimension(phi_x(derivation_space(alg))).value


def instances():
    c1 = multimatrix([(1, 1.0)], label="C")
    for n in (2, 3, 4, 5, 6):
        yield c1, trivial_action(cyclic(n), c1), f"Z/{n} trivial"

    c2 = multimatrix([(1, 0.5), (1, 0.5)], label="C^2")
    yield c2, permutation_action(cyclic(2), c2, [[0, 1], [1, 0]]), "Z/2 swap"

    m2 = multimatrix([(2, 1.0)], label="M2")
    sign = np.array([1, 0, 0, -1], dtype=complex)
    yield m2, ad_action(cyclic(2), m2, np.stack([m2.unit, sign])), "Z/2 Ad(diag(1,-1))"

    for n in (2, 3):
        cg = group_algebra(cyclic(n))
        yield cg, trivial_action(cyclic(n), cg), f"Z/{n} trivial"
        yield cg, dual_action(n), f"Z/{n} dual"

    cs3 = group_algebra(symmetric_3())
    yield cs3, trivial_action(cyclic(2), cs3), "Z/2 trivial"


def fmt_blocks(alg, rng) -> str:
    blocks = multimatrix_decompose(alg, rng)
    return " + ".join(f"M{n}^({w:.3g})" for n, w in blocks)


def main() -> int:
    rng = np.random.default_rng(0)
    header = f"{'base':<8} {'action':<20} {'lhs':>12} {'rhs':>12} {'value':>8}  crossed blocks"
    print(header)
    print("-" * len(header))
    worst = 0.0
    for alg, act, name in instances():
        cp = crossed_product(alg, act)
        lhs = dim_der(cp.algebra)
        rhs = 1.0 + (dim_der(alg) - 1.0) / act.group.order
        worst = max(worst, abs(lhs - rhs))
        frac = as_fraction(lhs, 4 * act.group.order**2 * alg.dim**2)
        shown = str(frac) if frac is not None else f"{lhs:.6f}"
        print(
            f"{alg.label:<8} {name:<20} {lhs:>12.9f} {rhs:>12.9f} {shown:>8}"
            f"  {fmt_blocks(cp.algebra, rng)}"
        )
    print(f"\nworst |lhs - rhs| = {worst:.3e}")
    return 0 if worst < 1e-7 else 1


if __name__ == "__main__":
    sys.exit(main())
