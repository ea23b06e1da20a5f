"""Spans around the public functions of each steinlab layer.

The tracer installs wrappers by rebinding names where callers look them
up (a module attribute, or an entry of a dispatch table) and puts the
originals back on exit. Each span records its name, start, end, parent
span and the item it ran for; spans stay in memory until the run ends.
A hooked name that no longer exists is listed in ``missing`` and its
metrics read zero.

Every ``<span>.s`` metric is self time: the span's duration minus the part
its wrapped child spans cover, so the self times of all spans add up to the
traced time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import time
import tracemalloc
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

LAYERS = ("constructions", "derivations", "vndim")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span in Tracer.spans
    item: tuple  # (pass number, item label)
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _nullspace_counts(args, out) -> dict:
    rows, cols = np.shape(args[0])
    return {"rows": rows, "cols": cols, "kernel": np.shape(out)[1]}


def _gram_onb_counts(args, out) -> dict:
    return {"cols": np.shape(args[0])[1], "kept": len(out[1])}


# counts read off a call's arguments and result, by span name
PROBES = {
    "derivations.nullspace": _nullspace_counts,
    "vndim.gram_onb": _gram_onb_counts,
    "vndim.vn_dimension": lambda args, out: {"right_ops": len(args[0].right_ops)},
    "reports.run": lambda args, out: {"checks": len(out.rows)},
}
# spans whose peak traced allocation is recorded (tracemalloc runs only inside them)
MEMORY = frozenset({"derivations.leibniz_system"})


def layer_hooks() -> list[tuple[str, str, str | None, str]]:
    """(module, attribute, dict key or None, span name) for every traced call site."""
    hooks = [
        ("steinlab.derivations", n, None, f"derivations.{n}")
        for n in ("derivation_space", "leibniz_system", "nullspace", "gram_onb")
    ]
    hooks += [
        ("steinlab.vndim", n, None, f"vndim.{n}")
        for n in ("vn_dimension", "phi_x", "inner_derivation_module", "restrict_scalars", "gram_onb")
    ]
    hooks += [
        ("steinlab.constructions", n, None, f"constructions.{n}")
        for n in ("crossed_product", "multimatrix_decompose", "generates")
    ]
    # reports binds its own names for the layer functions it calls
    reports = importlib.import_module("steinlab.reports")
    for attr, obj in sorted(vars(reports).items()):
        mod = getattr(obj, "__module__", "") or ""
        short = mod.rpartition(".")[2]
        if inspect.isfunction(obj) and mod.startswith("steinlab.") and short in LAYERS:
            hooks.append(("steinlab.reports", attr, None, f"{short}.{obj.__name__}"))
    hooks.append(("steinlab.reports", "run", None, "reports.run"))
    hooks.append(("steinlab.cli", "_FORMATS", "json", "cli.to_json"))
    return hooks


class Tracer:
    def __init__(self, hooks):
        self.hooks = list(hooks)
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self.overhead = 0.0  # seconds spent in the wrappers' own bookkeeping
        self.item: tuple = (0, "")
        self._open: list[int] = []
        self._saved: list[tuple] = []

    def __enter__(self) -> "Tracer":
        for module, attr, key, name in self.hooks:
            site = _site(module, attr, key)
            if site is None:
                self.missing.append(module + "." + attr + ("" if key is None else f"[{key!r}]"))
                continue
            owner, slot = site
            orig = _get(owner, slot)
            _set(owner, slot, self._wrap(orig, name))
            self._saved.append((owner, slot, orig))
        return self

    def __exit__(self, *exc) -> None:
        for owner, slot, orig in reversed(self._saved):
            _set(owner, slot, orig)
        self._saved.clear()

    def _wrap(self, fn, name: str):
        probe = PROBES.get(name)
        track = name in MEMORY

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t_in = time.perf_counter()
            parent = self._open[-1] if self._open else None
            span = Span(name, 0.0, 0.0, parent, self.item)
            self._open.append(len(self.spans))
            self.spans.append(span)
            started = track and not tracemalloc.is_tracing()
            if started:
                tracemalloc.start()
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                span.start, span.end = t0, t1
                if started:
                    span.counts["peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
                self._open.pop()
            if probe is not None:
                try:
                    span.counts.update(probe(args, out))
                except (AttributeError, IndexError, TypeError, ValueError):
                    pass  # the call's shape changed; its counts are left out
            self.overhead += (t0 - t_in) + (time.perf_counter() - t1)
            return out

        return wrapper


def _site(module: str, attr: str, key):
    try:
        mod = importlib.import_module(module)
    except ImportError:
        return None
    if key is None:
        return (mod, attr) if callable(getattr(mod, attr, None)) else None
    table = getattr(mod, attr, None)
    if isinstance(table, dict) and callable(table.get(key)):
        return table, key
    return None


def _get(owner, slot):
    return owner[slot] if isinstance(owner, dict) else getattr(owner, slot)


def _set(owner, slot, value) -> None:
    if isinstance(owner, dict):
        owner[slot] = value
    else:
        setattr(owner, slot, value)


def svd_gflop(rows: int, cols: int) -> float:
    """Computed cost of the SVD behind one nullspace call, in GFLOP.

    Golub & Van Loan's R-SVD counts: 6mn^2 + 20n^3 for thin singular
    vectors (rows >= cols), 4m^2n + 22n^3 when the full square factor is
    needed (rows < cols), with m >= n; times 4 for complex arithmetic.
    """
    if rows == 0 or cols == 0:
        return 0.0
    if rows >= cols:
        m, n = rows, cols
        flops = 6 * m * n * n + 20 * n**3
    else:
        m, n = cols, rows
        flops = 4 * m * m * n + 22 * n**3
    return 4.0 * flops / 1e9


class Totals:
    """Per-name sums over a set of spans."""

    def __init__(self, spans: list[Span], child_seconds: dict[int, float], indices):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(list)
        for i in indices:
            s = spans[i]
            self.self_s[s.name] += s.seconds - child_seconds.get(i, 0.0)
            self.calls[s.name] += 1
            self.counts[s.name].append(s.counts)

    def count_sum(self, name: str, key: str) -> float:
        return sum(c.get(key, 0) for c in self.counts[name])

    def ratio(self, name: str, num: str, den: str) -> float:
        d = self.count_sum(name, den)
        return self.count_sum(name, num) / d if d else 0.0


def _self(name):
    return ("s", lambda t: t.self_s[name])


def _calls(name):
    return ("count", lambda t: t.calls[name])


# per-layer metric -> (unit, value from one pass's Totals)
PER_LAYER = {
    "derivations.leibniz_system.s": _self("derivations.leibniz_system"),
    "derivations.leibniz_system.peak_mb": (
        "MB",
        lambda t: max((c.get("peak_mb", 0.0) for c in t.counts["derivations.leibniz_system"]), default=0.0),
    ),
    "derivations.nullspace.s": _self("derivations.nullspace"),
    "derivations.nullspace.calls": _calls("derivations.nullspace"),
    "derivations.nullspace.gflop_computed": (
        "GFLOP",
        lambda t: sum(svd_gflop(c["rows"], c["cols"]) for c in t.counts["derivations.nullspace"] if "rows" in c),
    ),
    "derivations.kernel_fraction": ("ratio", lambda t: t.ratio("derivations.nullspace", "kernel", "cols")),
    "derivations.derivation_space.s": _self("derivations.derivation_space"),
    "derivations.derivation_space.calls": _calls("derivations.derivation_space"),
    "derivations.gram_onb.s": _self("derivations.gram_onb"),
    "vndim.vn_dimension.s": _self("vndim.vn_dimension"),
    "vndim.vn_dimension.calls": _calls("vndim.vn_dimension"),
    "vndim.gram_onb.s": _self("vndim.gram_onb"),
    "vndim.gram_onb.kept_ratio": ("ratio", lambda t: t.ratio("vndim.gram_onb", "kept", "cols")),
    "vndim.right_ops": ("count", lambda t: t.count_sum("vndim.vn_dimension", "right_ops")),
    "vndim.inner_derivation_module.s": _self("vndim.inner_derivation_module"),
    "vndim.phi_x.s": _self("vndim.phi_x"),
    "vndim.restrict_scalars.s": _self("vndim.restrict_scalars"),
    "constructions.crossed_product.s": _self("constructions.crossed_product"),
    "constructions.multimatrix_decompose.s": _self("constructions.multimatrix_decompose"),
    "constructions.generates.s": _self("constructions.generates"),
    "reports.run.s": _self("reports.run"),
    "reports.checks": ("count", lambda t: t.count_sum("reports.run", "checks")),
    "cli.to_json.s": _self("cli.to_json"),
}


def child_seconds(spans: list[Span]) -> dict[int, float]:
    out: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            out[s.parent] += s.seconds
    return out


def pass_totals(spans: list[Span]) -> list[Totals]:
    """One Totals per pass, in pass order."""
    kids = child_seconds(spans)
    by_pass = defaultdict(list)
    for i, s in enumerate(spans):
        by_pass[s.item[0]].append(i)
    return [Totals(spans, kids, by_pass[p]) for p in sorted(by_pass)]


def layer_metrics(tracer: Tracer, passes: int) -> dict[str, dict]:
    """Median over passes of every per-layer metric."""
    totals = pass_totals(tracer.spans) or [Totals([], {}, [])]
    out = {}
    for name, (unit, fn) in PER_LAYER.items():
        out[name] = {"value": statistics.median(fn(t) for t in totals), "unit": unit}
    out["trace.overhead_s"] = {"value": tracer.overhead / max(passes, 1), "unit": "s"}
    return out


def item_breakdown(tracer: Tracer) -> list[str]:
    """One line per (item, span name), items in run order, spans by self time."""
    kids = child_seconds(tracer.spans)
    rows: dict[tuple, dict[str, list]] = {}
    for i, s in enumerate(tracer.spans):
        acc = rows.setdefault(s.item, {}).setdefault(s.name, [0, 0.0, 0.0])
        acc[0] += 1
        acc[1] += s.seconds
        acc[2] += s.seconds - kids.get(i, 0.0)
    lines = []
    for item, by_name in rows.items():
        for name, (calls, total, own) in sorted(by_name.items(), key=lambda kv: -kv[1][2]):
            lines.append(
                f"trace pass={item[0]} item={item[1]!r} span={name} calls={calls} "
                f"total_s={total:.4f} self_s={own:.4f}"
            )
    return lines
