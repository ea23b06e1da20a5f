"""Tests of the benchmark itself: seeding, the correctness gate, the tracer.

    python3 -m pytest benchmark/tests -q
"""

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import pytest  # noqa: E402

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from steinlab import constructions, derivations  # noqa: E402


def test_same_seed_gives_same_inputs():
    for make in (workloads.dense_inputs, workloads.inner_inputs):
        assert make(3) == make(3)
        assert make(3) != make(4)
        for spec in make(3).values():
            assert sum(a for _, a in spec["blocks"]) == pytest.approx(1.0, abs=1e-12)


def _c2_item(reference):
    alg = constructions.multimatrix([(1, 0.5), (1, 0.5)])
    return workloads.Item(
        "C^2", lambda: workloads.dense_dimension(alg), workloads._value_gate("C^2", reference)
    )


def test_gate_fails_an_item_whose_reference_is_perturbed():
    ref = workloads.multimatrix_dim([(1, 0.5), (1, 0.5)])
    tracer = tracing.Tracer([])
    _, ok = run.run_item(_c2_item(ref), tracer, (0, "C^2"))
    _, bad = run.run_item(_c2_item(ref + 1e-6), tracer, (0, "C^2"))
    assert ok == [("C^2", None)]
    assert bad[0][1] is not None and "misses" in bad[0][1]


def test_gate_counts_a_raising_operation_as_failed():
    def boom():
        raise ValueError("no")

    item = workloads.Item("x", boom, workloads._value_gate("x", 0.0), results=3)
    _, res = run.run_item(item, tracing.Tracer([]), (0, "x"))
    assert len(res) == 3 and all(why for _, why in res)


def _corpus_report(label, shift=0.0, status="pass"):
    refs = workloads.corpus_references(*workloads.CORPUS[label])
    rows = [{"name": n, "status": status, "lhs": v + shift} for n, v in refs.items()]
    return {"label": label, "rows": rows}


def test_corpus_gate_uses_its_own_closed_forms(monkeypatch):
    label = "M2+C | Z/2 | ad(diag(1,-1)+1)"
    report = _corpus_report(label)
    assert workloads.check_corpus_report(report) is None
    assert workloads.check_corpus_report(_corpus_report(label, shift=1e-6)) is not None
    assert workloads.check_corpus_report(_corpus_report(label, status="fail")) is not None
    # perturb the reference instead of the values: the same report now fails
    _, order = workloads.CORPUS[label]
    monkeypatch.setitem(workloads.CORPUS, label, ([(2, 0.6), (1, 0.4)], order))
    assert workloads.check_corpus_report(report) is not None


def test_corpus_gate_flags_exit_status_and_missing_specs():
    reps = [_corpus_report(label) for label in workloads.CORPUS]
    text = json.dumps({"reports": reps[1:]})
    out = workloads.corpus_gate((0, text))
    assert [why for _, why in out if why] == ["missing from the report"]
    out = workloads.corpus_gate((1, text))
    assert sum(1 for _, why in out if why) == len(workloads.CORPUS)


def test_tracer_restores_the_original_functions():
    hooks = tracing.layer_hooks()
    sites = [tracing._site(m, a, k) for m, a, k, _ in hooks]
    originals = [tracing._get(*s) for s in sites]
    alg = constructions.multimatrix([(1, 0.5), (1, 0.5)])
    with tracing.Tracer(hooks) as tracer:
        assert all(tracing._get(*s) is not o for s, o in zip(sites, originals))
        workloads.dense_dimension(alg)
    assert all(tracing._get(*s) is o for s, o in zip(sites, originals))
    assert tracer.missing == []
    names = [s.name for s in tracer.spans]
    assert {"derivations.derivation_space", "derivations.nullspace", "vndim.vn_dimension"} <= set(names)
    null = next(s for s in tracer.spans if s.name == "derivations.nullspace")
    assert tracer.spans[null.parent].name == "derivations.derivation_space"
    metrics = tracing.layer_metrics(tracer, 1)
    assert set(tracing.PER_LAYER) <= set(metrics)
    assert metrics["derivations.leibniz_system.peak_mb"]["value"] > 0


def test_a_missing_hook_is_reported_not_fatal():
    hooks = [("steinlab.derivations", "no_such_function", None, "derivations.leibniz_system"),
             ("steinlab.no_such_module", "f", None, "x")]
    with tracing.Tracer(hooks) as tracer:
        derivations.derivation_space(constructions.multimatrix([(1, 1.0)]))
    assert len(tracer.missing) == 2
    assert tracing.layer_metrics(tracer, 1)["derivations.leibniz_system.s"]["value"] == 0


def test_self_time_subtracts_wrapped_children():
    spans = [
        tracing.Span("a", 0.0, 10.0, None, (0, "i")),
        tracing.Span("b", 1.0, 4.0, 0, (0, "i")),
        tracing.Span("b", 5.0, 6.0, 0, (0, "i")),
    ]
    (tot,) = tracing.pass_totals(spans)
    assert tot.self_s["a"] == pytest.approx(6.0)
    assert tot.self_s["b"] == pytest.approx(4.0)
    assert tot.calls["b"] == 2
