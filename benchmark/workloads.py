"""Workloads of the steinlab benchmark.

Each workload turns a seed into inputs, builds them with the program's
constructions, and lists the operations ("items") to time. Every result is
checked against a closed form this file computes itself; no number the
program produced is used as a reference:

* multi-matrix algebra  sum_i M_{n_i} with trace weights a_i:
  dim Der = 1 - sum_i a_i^2 / n_i^2
* crossed product A x| G (Schreier form):  1 + (dim Der(A) - 1) / |G|

Program functions are looked up on their modules at call time
(``derivations.derivation_space``, not a local alias), so the tracer sees
every call it hooks.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from typing import Callable

import numpy as np

import steinlab.cli as cli
import steinlab.constructions as constructions
import steinlab.derivations as derivations
import steinlab.groups as groups
import steinlab.reports as reports
import steinlab.vndim as vndim

TOL = 1e-8


def multimatrix_dim(blocks) -> float:
    return 1.0 - sum(a * a / (n * n) for n, a in blocks)


def schreier_dim(blocks, order: int) -> float:
    return 1.0 + (multimatrix_dim(blocks) - 1.0) / order


def seeded_weights(rng: np.random.Generator, k: int) -> list[float]:
    """k trace weights summing to 1, none more than twice another, so no
    rank decision comes near the solver's gap guard."""
    w = rng.uniform(1.0, 2.0, size=k)
    return [float(x) for x in w / w.sum()]


@dataclass
class Item:
    """One timed operation and the gate for its output.

    gate(output) returns one (label, failure reason or None) pair per
    result the output holds; ``results`` is how many it should hold, and
    all of them fail if the operation raises.
    """

    label: str
    op: Callable[[], object]
    gate: Callable[[object], list[tuple[str, str | None]]]
    results: int = 1


@dataclass
class Workload:
    items: list[Item]
    # hooks timing the sub-results of an item, so max_item_s sees them
    item_hooks: list[tuple[str, str, str | None, str]]


def _value_gate(label: str, reference: float):
    def gate(value) -> list[tuple[str, str | None]]:
        err = abs(float(value) - reference)
        if not err <= TOL:
            return [(label, f"value {float(value)!r} misses {reference!r} by {err:.3e}")]
        return [(label, None)]

    return gate


# -- dense_ladder: Leibniz solve at the dense solver's ceiling ---------------------

def dense_inputs(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    w = seeded_weights(rng, 6)
    b = seeded_weights(rng, 2)
    c = seeded_weights(rng, 3)
    return {
        "M2+C^5": {"blocks": [(2, w[0])] + [(1, x) for x in w[1:]]},
        "M2+C x| Z/2": {"blocks": [(2, b[0]), (1, b[1])], "order": 2},
        "M3+C+C": {"blocks": [(3, c[0]), (1, c[1]), (1, c[2])]},
    }


def dense_dimension(alg) -> float:
    return vndim.vn_dimension(vndim.phi_x(derivations.derivation_space(alg))).value


def _dense_algebra(spec: dict):
    base = constructions.multimatrix(spec["blocks"])
    if "order" not in spec:
        return base
    # ad of diag(1, -1) on M2, identity on C: an order-2 inner action
    sign = np.array([1, 0, 0, -1, 1], dtype=complex)
    act = constructions.ad_action(
        groups.cyclic(spec["order"]), base, np.stack([base.unit, sign])
    )
    return constructions.crossed_product(base, act).algebra


def _dense(seed: int) -> Workload:
    inputs = dense_inputs(seed)
    items = []
    for label, spec in inputs.items():
        alg = _dense_algebra(spec)
        if "order" in spec:
            ref = schreier_dim(spec["blocks"], spec["order"])
        else:
            ref = multimatrix_dim(spec["blocks"])
        items.append(Item(label, lambda alg=alg: dense_dimension(alg), _value_gate(label, ref)))
    dense_dimension(constructions.multimatrix([(1, 0.5), (1, 0.5)]))  # warm-up
    return Workload(items, [])


# -- inner_ladder: inner-derivation modules, no Leibniz solve -----------------------

def inner_inputs(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    w = seeded_weights(rng, 3)
    out = {f"M{n}": {"blocks": [(n, 1.0)]} for n in (4, 5, 6)}
    out["M4+M2+C"] = {"blocks": [(4, w[0]), (2, w[1]), (1, w[2])]}
    return out


def inner_dimension(alg, gens) -> float:
    return vndim.vn_dimension(vndim.inner_derivation_module(alg, gens)).value


def _inner(seed: int) -> Workload:
    inputs = inner_inputs(seed)
    items = []
    for label, spec in inputs.items():
        alg = constructions.multimatrix(spec["blocks"])
        gens = constructions.multimatrix_generators(spec["blocks"])
        ref = multimatrix_dim(spec["blocks"])
        items.append(Item(label, lambda a=alg, g=gens: inner_dimension(a, g), _value_gate(label, ref)))
    warm = [(2, 1.0)]
    inner_dimension(constructions.multimatrix(warm), constructions.multimatrix_generators(warm))
    return Workload(items, [])


# -- corpus: the built-in battery through the command line -------------------------

def _cz(n: int) -> list[tuple[int, float]]:
    """C[Z/n] is n one-dimensional blocks of weight 1/n."""
    return [(1, 1.0 / n)] * n


_C, _C2 = [(1, 1.0)], [(1, 0.5), (1, 0.5)]
# label -> (blocks of the base algebra, group order)
CORPUS = {
    **{f"C | Z/{n} | trivial": (_C, n) for n in range(2, 7)},
    "C | Z/2xZ/2 | trivial": (_C, 4),
    "C | S3 | trivial": (_C, 6),
    "C^2 | Z/2 | swap": (_C2, 2),
    "C^3 | Z/3 | cycle": ([(1, 1 / 3)] * 3, 3),
    "C^3 uneven | Z/2 | trivial": ([(1, 0.5), (1, 0.3), (1, 0.2)], 2),
    "M2 | Z/2 | ad(diag(1,-1))": ([(2, 1.0)], 2),
    "M2+C | Z/2 | ad(diag(1,-1)+1)": ([(2, 2 / 3), (1, 1 / 3)], 2),
    "C[Z/2] | Z/2 | trivial": (_cz(2), 2),
    "C[Z/2] | Z/2 | dual": (_cz(2), 2),
    "C[Z/3] | Z/3 | dual": (_cz(3), 3),
    "C^2 | Z/4 | swap through Z/2": (_C2, 4),
    "C^2 | Z/2xZ/2 | swap on first factor": (_C2, 4),
}
# rows that must be present; the rest are checked when the report has them
_REQUIRED_ROWS = ("multimatrix_formula", "schreier_crossed")


def corpus_references(blocks, order: int) -> dict[str, float]:
    """Closed form of the lhs of each value-carrying corpus row."""
    dim_a = multimatrix_dim(blocks)
    dim_m = schreier_dim(blocks, order)
    return {
        "multimatrix_formula": dim_a,
        "schreier_crossed": dim_m,
        "crossed_multimatrix": dim_m,
        "group_algebra_dim": dim_m,
        "betti_difference": dim_m - 1.0,
        "subgroup_schreier": dim_m - 1.0,
        "schreier_vanishing": order * dim_a,
        "index_scaling_full": float(order * order),
    }


def check_corpus_report(rep: dict) -> str | None:
    """Failure reason for one spec's report, or None when it is correct."""
    label = rep["label"]
    if label not in CORPUS:
        return "no closed form for this spec"
    rows = {row["name"]: row for row in rep["rows"]}
    failed = [name for name, row in rows.items() if row["status"] not in ("pass", "skipped")]
    if failed:
        return f"rows not passing: {failed}"
    for name, ref in corpus_references(*CORPUS[label]).items():
        row = rows.get(name)
        if row is None or row["status"] == "skipped":
            if name in _REQUIRED_ROWS:
                return f"row {name} missing or skipped"
            continue
        lhs = row["lhs"]
        if lhs is None or not abs(lhs - ref) <= TOL:
            return f"row {name}: lhs {lhs!r} misses {ref!r}"
    return None


def corpus_gate(output) -> list[tuple[str, str | None]]:
    status, text = output
    reps = json.loads(text)["reports"]
    out = []
    for rep in reps:
        reason = check_corpus_report(rep)
        if reason is None and status != 0:
            reason = f"exit status {status}"
        out.append((rep["label"], reason))
    seen = {rep["label"] for rep in reps}
    out += [(label, "missing from the report") for label in CORPUS if label not in seen]
    return out


def corpus_run(seed: int):
    buf = io.StringIO()
    argv = ["corpus", "--format", "json", "--seed", str(seed), "--tolerance", "1e-8"]
    with contextlib.redirect_stdout(buf):
        try:
            status = cli.main(argv)
        except SystemExit as exc:  # argparse rejected the arguments
            status = exc.code
    return status, buf.getvalue()


def _corpus(seed: int) -> Workload:
    reports.run(reports.corpus_specs(seed=seed)[0])  # warm-up: smallest spec
    item = Item("corpus", lambda: corpus_run(seed), corpus_gate, results=len(CORPUS))
    return Workload([item], [("steinlab.reports", "run", None, "reports.run")])


def build(name: str, seed: int) -> Workload:
    """Inputs for the named workload from the seed, built and warmed up."""
    builders = {"corpus": _corpus, "dense_ladder": _dense, "inner_ladder": _inner}
    return builders[name](seed)
