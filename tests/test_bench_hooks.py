"""The benchmark under bench/ traces the library by wrapping attributes by
name (bench/layers.py, `targets`).  A rename in the library would break its
traced runs without failing any library test, so this test resolves every
hook point, and checks that set-up still goes through the hooks."""

import dataclasses
import sys
from pathlib import Path

import pytest

import newtrack.cli  # binds newtrack; targets() reads newtrack.cli too
from newtrack import algorithms, harness
from newtrack.objectives import LogisticFamily, generate_logistic_data
from newtrack.topology import (build_topology, metropolis_weights,
                               spectral_stats)

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_every_trace_target_resolves():
    sys.path.insert(0, str(BENCH))
    try:
        import layers
    finally:
        sys.path.remove(str(BENCH))
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, *_ in layers.targets(newtrack)
               if not callable(vars(owner).get(attr))]
    assert missing == []


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


@pytest.mark.parametrize("n, m, p, b", [(10, 12, 8, 8), (100, 10, 40, 10)],
                         ids=["fig1", "fig5-shape"])
def test_local_solves_go_through_solve_spd_blocks(monkeypatch, n, m, p, b):
    """The benchmark's algorithms.solve layer wraps solve_spd_blocks and
    reads blocks.shape for its GFLOP/s, so every regularized local solve,
    in nt_init, nt_step and pd_step, must reach it once with the (n, b, b)
    stack: b = p on the dense path, b = m on the m < p Woodbury path."""
    family = LogisticFamily(generate_logistic_data(n=n, m=m, p=p, reg=1e-3, seed=1))
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
        state = algorithms.nt_step(state, family, mix.w)
        pd = algorithms.pd_step(pd, family, mix.w)
    assert calls == ["reg_solve", (n, b, b)] * 5
