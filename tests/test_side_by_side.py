"""A config's methods run side by side in forked workers: when they do, what
they return, how they fail, and that no worker outlives the run."""

import dataclasses
import json
import os
import time

import pytest

from newtrack import algorithms as alg
from newtrack import harness
from newtrack.harness import (FORK_ITERS, AlgorithmSpec, DataSpec, RunConfig,
                              TopologySpec, preset, run_checks, run_experiment,
                              topology_to_doc)

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")

NAMES = ("nt", "gt", "extra", "dlm")


def quad_config(iters=FORK_ITERS, file=None):
    """The four-method quadratic config of CI's console-script step."""
    return RunConfig(
        name="quad-pinned",
        topology=TopologySpec(kind="random", n=12, tau=0.4, seed=3, file=file),
        data=DataSpec(family="quadratic", p=4, seed=2),
        algorithms=(AlgorithmSpec("nt", alpha=1.0, eps=2.0),
                    AlgorithmSpec("gt", alpha=0.1),
                    AlgorithmSpec("extra", alpha=0.1),
                    AlgorithmSpec("dlm", alpha=0.1, eps=1.0)),
        iters=iters,
    )


def assert_no_child_left():
    # The benchmark fails a run that leaves a process behind.
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def cpus(monkeypatch, count):
    """Fake count usable CPUs, 0 to count - 1, whatever the host has.  The
    affinities this process then sets are returned, in order."""
    pins = []
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)),
                        raising=False)
    monkeypatch.setattr(os, "sched_setaffinity", lambda pid, mask: pins.append(set(mask)),
                        raising=False)
    return pins


def test_workers_one_per_cpu_and_method(monkeypatch):
    config = quad_config()
    cpus(monkeypatch, 2)
    assert harness._workers(config) == 2
    assert harness._workers(dataclasses.replace(config, iters=FORK_ITERS - 1)) == 1
    assert harness._workers(dataclasses.replace(config, algorithms=config.algorithms[:1])) == 1
    cpus(monkeypatch, 8)
    assert harness._workers(config) == 4
    cpus(monkeypatch, 1)
    assert harness._workers(config) == 1
    monkeypatch.delattr(os, "sched_getaffinity")
    assert harness._workers(config) == 1


@pytest.mark.parametrize("count, config", [
    (8, quad_config(iters=0)),  # a set-up
    (8, quad_config(iters=FORK_ITERS - 1)),
    (8, dataclasses.replace(quad_config(), algorithms=quad_config().algorithms[1:2])),
    (1, quad_config()),
    (None, quad_config()),
], ids=["zero-iterations", "short-budget", "one-method", "one-cpu", "no-affinity"])
def test_serial_cases_never_fork(monkeypatch, count, config):
    if count is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    else:
        cpus(monkeypatch, count)

    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", no_fork)
    record = run_experiment(config)
    assert list(record.traces) == [a.name for a in config.algorithms]


def patch_steps(monkeypatch, fails, act):
    """Wrap every method's step.  Each process's first step waits 0.2 s, so
    that both the parent and the child take a method; then, on the side
    that fails(in_parent) names, act(name) runs before the step.  The
    methods this process stepped are returned, in the order they started."""
    parent, here, waited = os.getpid(), [], []
    for name in NAMES:
        def step(state, family, name=name, inner=getattr(alg, f"{name}_step")):
            in_parent = os.getpid() == parent
            if in_parent and name not in here:
                here.append(name)
            if not waited:
                waited.append(time.sleep(0.2))
            if fails(in_parent):
                act(name)
            return inner(state, family)
        monkeypatch.setattr(alg, f"{name}_step", step)
    return here


def raise_for(name):
    raise ValueError(f"{name} failed")


@pytest.mark.parametrize("side", ["child", "parent", "both"])
def test_a_failing_method_raises_the_serial_runs_error(monkeypatch, side):
    # The earliest failing method in config order wins, wherever it ran,
    # and its error arrives with its type and message.
    pins = cpus(monkeypatch, 2)
    fails = {"child": lambda in_parent: not in_parent,
             "parent": lambda in_parent: in_parent,
             "both": lambda in_parent: True}[side]
    here = patch_steps(monkeypatch, fails, raise_for)
    with pytest.raises(ValueError) as err:
        run_experiment(quad_config())
    assert_no_child_left()
    assert pins == [{0}, {0, 1}]  # this process kept CPU 0, then all again
    assert 0 < len(here) < len(NAMES)
    failed = [n for n in NAMES if fails(n in here)]
    assert str(err.value) == f"{failed[0]} failed"
    cpus(monkeypatch, 1)  # a serial run of the same failures
    for name in NAMES:
        monkeypatch.setattr(alg, f"{name}_step", lambda s, f, name=name: raise_for(name))
    with pytest.raises(ValueError, match=f"^{failed[0]} failed$"):
        run_experiment(dataclasses.replace(quad_config(), algorithms=tuple(
            a for a in quad_config().algorithms if a.name in failed)))


def test_a_worker_that_exits_without_its_result_is_named(monkeypatch):
    pins = cpus(monkeypatch, 2)
    here = patch_steps(monkeypatch, lambda in_parent: not in_parent,
                       lambda name: os._exit(3))
    with pytest.raises(RuntimeError) as err:
        run_experiment(quad_config())
    assert_no_child_left()
    assert pins == [{0}, {0, 1}]
    lost = [n for n in NAMES if n not in here]
    assert len(lost) == 1
    assert str(err.value) == (f"algorithms: {lost[0]!r} ran in a worker process "
                              "that exited without its result")


def test_a_successful_side_by_side_run_leaves_no_child(monkeypatch):
    pins = cpus(monkeypatch, 3)
    record = run_experiment(quad_config())
    assert_no_child_left()
    assert pins == [{0}, {0, 1, 2}]  # CPUs 1 and 2 were the children's
    assert list(record.traces) == list(NAMES)
    assert all(len(t) == FORK_ITERS + 1 for t in record.traces.values())


def without_wall(record) -> dict:
    doc = record.to_doc()
    for trace in doc["traces"].values():
        del trace["wall_ms"]
    return doc


@pytest.mark.skipif(len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) < 2,
                    reason="fewer than two usable CPUs")
@pytest.mark.parametrize("name", ["fig4-n50", "quad-pinned"])
def test_records_match_serial_and_side_by_side(tmp_path, name):
    # Pinned to one CPU, the run is serial; unpinned, its methods run in
    # workers.  Every field but wall_ms matches, and each record checks in
    # the other mode.
    if name == "fig4-n50":
        config = dataclasses.replace(preset("fig4-n50"), iters=300)
    else:
        net = harness.build_network(quad_config().topology)
        pin = tmp_path / "pin.json"
        pin.write_text(json.dumps(topology_to_doc(net.graph, net.mix)))
        config = quad_config(iters=400, file=str(pin))
    usable = os.sched_getaffinity(0)
    assert harness._workers(config) >= 2

    def pinned(run, *args):
        os.sched_setaffinity(0, {min(usable)})
        try:
            assert harness._workers(config) == 1
            return run(*args)
        finally:
            os.sched_setaffinity(0, usable)

    serial = pinned(run_experiment, config)
    side_by_side = run_experiment(config)
    assert_no_child_left()
    assert os.sched_getaffinity(0) == usable
    assert without_wall(serial) == without_wall(side_by_side)
    assert run_checks(serial)["passed"]
    assert pinned(run_checks, side_by_side)["passed"]
