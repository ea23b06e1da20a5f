"""steinlab benchmark: one workload, one seed, one JSON result line.

    python3 benchmark/run.py --workload dense_ladder --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` as it stands, so nothing needs installing. The untraced run
(``--trace 0``) reports the end-to-end metrics and the traced run
(``--trace 1``) the per-layer metrics; see benchmark/README.md.

A run sets up several times (import steinlab, make the inputs from the
seed and build them, one warm-up call), then runs passes over the
workload's items, starting another pass only while it fits in
``--seconds``; there is always at least one. Every item is checked
against a closed form. The last line of stdout is the result.
"""

import argparse
import importlib
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

# One BLAS thread: on a 2-core machine shared with other work, two threads
# made the dim-10 dense item ~1.5x faster but widened its run-to-run range
# from 5.6% to 14% (four runs each).
BLAS_THREADS = 1
SETUPS = 8  # set-ups before the passes and again after them; setup_s is the median
WORKLOADS = ("corpus", "dense_ladder", "inner_ladder")

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def pin_blas_threads() -> None:
    """Must run before numpy is imported; child processes inherit it."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def blas_threads_in_use():
    """Thread count the loaded OpenBLAS reports, or None if it cannot be read."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "blas_threads_pinned": BLAS_THREADS,
        "blas_threads_in_use": blas_threads_in_use(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
    }


def run_item(item, tracer, key):
    """(seconds, [(label, failure reason or None), ...]) for one item."""
    tracer.item = key
    t0 = time.perf_counter()
    try:
        out = item.op()
    except Exception as exc:  # a failing operation is a counted failure, not a crash
        dt = time.perf_counter() - t0
        return dt, [(item.label, f"{type(exc).__name__}: {exc}")] * item.results
    dt = time.perf_counter() - t0
    try:
        return dt, item.gate(out)
    except (KeyError, TypeError, ValueError) as exc:
        return dt, [(item.label, f"unreadable output: {type(exc).__name__}: {exc}")] * item.results


def measure(workload, seconds, tracer):
    """Passes over the items; each pass is a dict of item seconds and outcomes."""
    sub_spans = {name for *_, name in workload.item_hooks}
    passes = []
    start = time.perf_counter()
    while True:
        pno = len(passes)
        first_span = len(tracer.spans)
        times, outcomes = {}, []
        for item in workload.items:
            dt, res = run_item(item, tracer, (pno, item.label))
            times[item.label] = dt
            outcomes += res
        # an item's sub-results (corpus specs) count as items of their own
        subs = [s.seconds for s in tracer.spans[first_span:] if s.name in sub_spans]
        passes.append({
            "wall": sum(times.values()),
            "max_item": max(subs or times.values()),
            "times": times,
            "outcomes": outcomes,
        })
        elapsed = time.perf_counter() - start
        if elapsed + passes[-1]["wall"] > seconds:
            return passes


def set_up(name: str, seed: int, times: list):
    """Set up SETUPS times: import steinlab afresh, build the inputs, warm up.

    Appends the seconds each took to times and returns the last workload.
    The first set-up of a run also imports numpy; the median leaves it out.
    """
    for _ in range(SETUPS):
        for mod in [m for m in sys.modules if m == "workloads" or m.split(".")[0] == "steinlab"]:
            del sys.modules[mod]
        t0 = time.perf_counter()
        workload = importlib.import_module("workloads").build(name, seed)
        times.append(time.perf_counter() - t0)
    return workload


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "steinlab" / "__init__.py").is_file():
        print(f"benchmark: no steinlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    pin_blas_threads()
    sys.dont_write_bytecode = True  # every run compiles the same sources
    sys.path.insert(0, str(ROOT / "src"))

    setups = []
    workload = set_up(args.workload, args.seed, setups)
    import tracing

    # untraced, only the item hooks run: one timer per corpus spec
    tracer = tracing.Tracer(tracing.layer_hooks() if args.trace else workload.item_hooks)
    with tracer:
        passes = measure(workload, args.seconds, tracer)

    outcomes = [o for p in passes for o in p["outcomes"]]
    failed = [(label, why) for label, why in outcomes if why is not None]
    for p_no, p in enumerate(passes):
        for label, dt in p["times"].items():
            print(f"item pass={p_no} {label!r} seconds={dt:.4f}")
    for label, why in failed:
        print(f"FAILED {label!r}: {why}")
    for name in tracer.missing:
        print(f"missing hook {name}: its metrics read zero")

    if args.trace:
        for line in tracing.item_breakdown(tracer):
            print(line)
        metrics = tracing.layer_metrics(tracer, len(passes))
        metrics["trace.wall_s"] = {
            "value": statistics.median(p["wall"] for p in passes), "unit": "s"
        }
    else:
        # sample set-up after the passes too: on a shared host the machine's
        # speed drifts, and this way setup_s sees the same stretch as wall_s
        set_up(args.workload, args.seed, setups)
        metrics = {
            "wall_s": {"value": statistics.median(p["wall"] for p in passes), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "max_item_s": {"value": statistics.median(p["max_item"] for p in passes), "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"
            },
        }
    print(json.dumps({"env": environment(), "workload": args.workload, "seed": args.seed,
                      "passes": len(passes)}))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
