"""Self-tests of the benchmark's tracer, metric catalogue and gate.

    python3 -m pytest -q bench
"""

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import newtrack  # noqa: E402
from newtrack import cli, harness  # noqa: E402

import layers  # noqa: E402
import workloads  # noqa: E402
from tracer import Span, Tracer, self_times  # noqa: E402


def small_config(iters=40):
    """fig1 and a first-order trio on a 10-node network, briefly."""
    base = harness.preset("fig1")
    return dataclasses.replace(
        base, iters=iters,
        algorithms=base.algorithms + (harness.AlgorithmSpec("gt", alpha=0.05),
                                      harness.AlgorithmSpec("extra", alpha=0.05),
                                      harness.AlgorithmSpec("dlm", alpha=0.05, eps=0.5)))


def test_tracing_leaves_traces_bit_identical():
    config = small_config()
    plain = harness.run_experiment(config)
    tracer = Tracer()
    with tracer.installed(layers.targets(newtrack)):
        with tracer.span(layers.ROOT):
            traced = harness.run_experiment(config)
    names = {s.name for s in tracer.take()}
    assert {"algorithms.solve", "algorithms.step.nt", "algorithms.step.dlm",
            "objectives.grad_stack", "harness.driver"} <= names
    assert plain.traces.keys() == traced.traces.keys()
    for name, trace in plain.traces.items():
        assert trace.rel_error == traced.traces[name].rel_error, name
        assert trace.kkt_primal == traced.traces[name].kkt_primal, name
    assert np.array_equal(plain.x_star, traced.x_star)


def test_wrappers_restore_originals():
    targets = layers.targets(newtrack)
    originals = [(owner, attr, vars(owner)[attr]) for owner, attr, *_ in targets]
    with Tracer().installed(targets):
        for owner, attr, original in originals:
            assert vars(owner)[attr] is not original, attr
    for owner, attr, original in originals:
        assert vars(owner)[attr] is original, f"{owner.__name__}.{attr}"
    assert cli.run_experiment is harness.run_experiment


def test_wrappers_restore_after_an_exception_and_drop_inherited():
    class Base:
        def f(self):
            return 1

    class Child(Base):
        pass

    tracer = Tracer()
    try:
        with tracer.installed([(Child, "f", "f")]):
            assert Child().f() == 1
            assert "f" in vars(Child)
            raise KeyError("boom")
    except KeyError:
        pass
    assert "f" not in vars(Child) and Child.f is Base.f
    assert [s.name for s in tracer.take()] == ["f"]


def test_self_times_add_up_on_nested_spans():
    # root [0, 100] > a [10, 60] > a1 [20, 30], a2 [35, 55]; root > b [70, 90]
    spans = [Span("root", 0, 100), Span("a", 10, 60, parent=0),
             Span("a1", 20, 30, parent=1), Span("a2", 35, 55, parent=1),
             Span("b", 70, 90, parent=0)]
    selfs = self_times(spans)
    assert selfs == [30, 20, 10, 20, 20]
    assert sum(selfs) == spans[0].dur


def test_self_times_add_up_on_live_nested_spans():
    tracer = Tracer()
    with tracer.span("root"):
        with tracer.span("a"):
            with tracer.span("a1"):
                sum(range(1000))
        with tracer.span("b"):
            sum(range(1000))
    spans = tracer.take()
    assert [s.parent for s in spans] == [None, 0, 1, 0]
    assert sum(self_times(spans)) == spans[0].dur
    assert all(t >= 0 for t in self_times(spans))


def test_layer_ns_drops_glue_and_spans_outside_operations():
    # op [0, 100] > a [10, 60] > a1 [20, 30]; x [200, 300] is no operation
    spans = [Span(layers.ROOT, 0, 100), Span("a", 10, 60, parent=0),
             Span("a1", 20, 30, parent=1), Span("x", 200, 300)]
    assert layers.layer_ns(spans) == 50


def test_layer_metrics_count_calls_per_operation():
    config = small_config(iters=20)
    tracer = Tracer()
    with tracer.installed(layers.targets(newtrack)):
        with tracer.span(layers.ROOT):
            record = harness.run_experiment(config)
        harness.run_experiment(config)  # outside any operation: ignored
    iters = sum(len(t) - 1 for t in record.traces.values())
    m = layers.from_spans([tracer.take()], iters)
    assert m["algorithms.step.nt.calls"] == 20
    assert m["algorithms.solve.calls"] == 21  # nt_init plus one per step
    assert m["algorithms.solve.blocks"] == 21 * 10
    # nt's metric push evaluates the gradient once per recorded iterate
    assert m["objectives.grad_stack.metric_calls"] == 21


def test_gate_flags_divergence_and_a_wrong_reference():
    config = dataclasses.replace(harness.preset("fig1"), iters=400)
    record = harness.run_experiment(config)
    assert workloads.gate(record) == []
    record.traces["nt"].rel_error[-1] = float("nan")
    record.x_star = record.x_star + 1e-6
    problems = workloads.gate(record)
    assert any("non-finite" in p for p in problems)
    assert any("grad F(x_star)" in p for p in problems)


def test_benchmark_json_matches_the_catalogue():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert [w["name"] for w in doc["workloads"]] == list(workloads.NAMES)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in doc["end_to_end"]] \
        == [tuple(m) for m in layers.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] \
        == [tuple(m[:3]) for m in layers.PER_LAYER]
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])
