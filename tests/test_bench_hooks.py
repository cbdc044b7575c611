"""The benchmark under bench/ traces the library by wrapping attributes by
name (bench/layers.py, `targets`).  A rename in the library would break its
traced runs without failing any library test, so this test resolves every
hook point, and checks that set-up still goes through the hooks."""

import dataclasses
import importlib
import sys
from pathlib import Path

import pytest

import newtrack.cli  # binds newtrack; targets() reads newtrack.cli too
from newtrack import algorithms, harness
from newtrack.objectives import generate_logistic_data, generate_quadratic_set
from newtrack.topology import (build_topology, metropolis_weights,
                               spectral_stats)

BENCH = Path(__file__).resolve().parent.parent / "bench"


def bench_module(name: str):
    """A module of bench/, imported by name as bench/run.py imports it."""
    sys.path.insert(0, str(BENCH))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(str(BENCH))


def test_every_trace_target_resolves():
    layers = bench_module("layers")
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, *_ in layers.targets(newtrack)
               if not callable(vars(owner).get(attr))]
    assert missing == []


def test_benchmark_workloads_pass_their_gate(tmp_path):
    """A library change the benchmark cannot run with (a removed name, a
    config key that no longer loads) would show there only as a failed run.
    So replay-n10 runs once through the benchmark's own gate at data seed 1,
    with its iterations to tolerance, and both n = 100 workloads set up."""
    workloads = bench_module("workloads")
    replay = workloads.make("replay-n10", None, 1, tmp_path / "bench")
    try:
        replay.setup()
        result = replay.collect(replay.op())
    finally:
        replay.close()
    assert result.failures == []
    assert result.to_tol == {"nt": (855, 68400)}
    for name in ("nt-n100", "fo-n100"):
        workloads.make(name, None, 1, tmp_path / "bench").setup()


def run_fig1():
    harness.run_experiment(dataclasses.replace(harness.preset("fig1"), iters=0))


def certify_fig1():
    assert newtrack.cli.main(["certify", "--preset", "fig1"]) == 0


@pytest.mark.parametrize("entry, references", [(run_fig1, 1), (certify_fig1, 0)],
                         ids=["run", "certify"])
def test_setup_hooks_are_on_the_run_path(monkeypatch, entry, references):
    """Each set-up hook the benchmark wraps runs once per entry point, so a
    set-up path that bypasses them cannot zero their layers unnoticed.  The
    reference solve runs only where x* is read: certify never reads it."""
    calls = {}
    hooks = [(harness, name) for name in (
        "build_topology", "metropolis_weights", "spectral_stats",
        "generate_logistic_data", "convexity_bounds")]
    hooks.append((algorithms, "centralized_reference"))
    for owner, name in hooks:
        real = getattr(owner, name)
        calls[name] = 0

        def wrapper(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)

    entry()
    assert calls == {**{name: 1 for _, name in hooks},
                     "centralized_reference": references}


@pytest.mark.parametrize("family, b", [
    (generate_logistic_data(n=10, m=12, p=8, reg=1e-3, seed=1), 8),
    (generate_logistic_data(n=100, m=10, p=40, reg=1e-3, seed=1), 10),
    (generate_quadratic_set(n=6, p=3, seed=1), 3)],
    ids=["fig1", "fig5-shape", "quadratic"])
def test_local_solves_go_through_solve_spd_blocks(monkeypatch, family, b):
    """The benchmark's algorithms.solve layer wraps solve_spd_blocks and
    reads blocks.shape for its GFLOP/s, so every regularized local solve,
    in nt_init, nt_step and pd_step, must reach it once with the (n, b, b)
    stack: b = p on the dense paths (a family's hess_band), b = m on the
    m < p Woodbury path.  reg_solve must look the name up at call time."""
    n = family.n
    mix = metropolis_weights(build_topology("cycle", n))
    calls = []
    real_reg, real_blocks = algorithms.reg_solve, algorithms.solve_spd_blocks
    monkeypatch.setattr(algorithms, "reg_solve",
                        lambda *args: calls.append("reg_solve") or real_reg(*args))
    monkeypatch.setattr(algorithms, "solve_spd_blocks", lambda blocks, rhs:
                        calls.append(blocks.shape) or real_blocks(blocks, rhs))
    state = algorithms.nt_init(family, 0.5, 1.0)
    pd = algorithms.pd_init(family, spectral_stats(mix).root, 0.5, 1.0)
    for _ in range(2):
        state = algorithms.nt_step(state, family, mix.disagreement)
        pd = algorithms.pd_step(pd, family, mix.w)
    assert calls == ["reg_solve", (n, b, b)] * 5


def test_each_method_steps_through_its_own_name(monkeypatch):
    """The benchmark times algorithms.<method>_step apart for each method.
    nt, extra and dlm share one q-form step, so a run loop that called
    nt_step for all three would merge their spans unnoticed: each name
    must see exactly its own method's rounds."""
    assert algorithms.extra_step is algorithms.dlm_step is algorithms.nt_step
    calls = {}
    for name in ("nt", "gt", "extra", "dlm"):
        real = getattr(algorithms, f"{name}_step")
        calls[name] = 0

        def wrapper(*args, _real=real, _name=name):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(algorithms, f"{name}_step", wrapper)
    config = harness.RunConfig(
        name="hooks", topology=harness.TopologySpec(kind="cycle", n=4),
        data=harness.DataSpec(family="quadratic", p=2, seed=0),
        algorithms=(harness.AlgorithmSpec("nt", alpha=1.0, eps=1.5),
                    harness.AlgorithmSpec("gt", alpha=0.05),
                    harness.AlgorithmSpec("extra", alpha=0.1),
                    harness.AlgorithmSpec("dlm", alpha=0.4, eps=0.4)),
        iters=3)
    harness.run_experiment(config)
    assert calls == {"nt": 3, "gt": 3, "extra": 3, "dlm": 3}


def test_check_evaluates_oracles_inside_the_analysis_layers(capsys, tmp_path):
    """The benchmark attributes time by the innermost wrapped caller, so a
    gradient or Hessian the check evaluates outside a wrapped analysis
    function counts as harness.check self time.  Traced under the
    benchmark's targets, every oracle span of `check` on a 30-round fig1
    record sits directly under analysis.check or analysis.certificate."""
    layers, tracer = bench_module("layers"), bench_module("tracer")
    out = tmp_path / "fig1"
    assert newtrack.cli.main(["solve", "--preset", "fig1", "--iters", "30",
                              "--out", str(out)]) == 0
    with tracer.Tracer().installed(layers.targets(newtrack)) as traced:
        assert newtrack.cli.main(["check", "--record", str(out / "record.json")]) == 0
        spans = traced.take()
    capsys.readouterr()
    parents = {}
    for span in spans:
        if span.name in ("objectives.grad_stack", "objectives.hess_stack"):
            parent = spans[span.parent].name
            parents[span.name, parent] = parents.get((span.name, parent), 0) + 1
    # The stationarity check's per-iterate grad_curvature and hess_blocks are
    # not wrapped, so their time is analysis.check's own; its one wrapped
    # oracle call is the gradient at x*.
    assert parents == {("objectives.grad_stack", "analysis.certificate"): 1,
                       ("objectives.grad_stack", "analysis.check"): 1}
