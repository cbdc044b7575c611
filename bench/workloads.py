"""The benchmark's workloads and the correctness gate applied to each run.

Every workload takes its network, data and step sizes from the program's
own presets; only the seeds change with the benchmark's arguments.

nt-n100     fig5-n100 network and data, Newton tracking alone on a capped
            budget.  The per-node local solve dominates (second-order path).
fo-n100     the same network and data with gt, extra and dlm at the
            published step sizes.  No local solve runs, so a change to the
            solve must leave this workload unchanged; the gradient oracle
            and the harness's per-iteration metric push dominate.
replay-n10  `solve --preset fig1`, `check` on its record, then
            `sweep --preset topo-n10`, each through `cli.main` in-process.
            Blocks are tiny (n=10, p=8), so per-call overhead dominates the
            solve, and set-up spans four networks plus record I/O.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import shutil
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from newtrack import cli, harness
from newtrack.objectives import generate_logistic_data

TOL = 1e-8        # every method's final rel_error must reach this
XSTAR_TOL = 1e-9  # gradient norm of the aggregate objective at x_star

# Capped budgets: about twice the most iterations any seed needed to reach
# TOL (nt about 146 at fig5 shape; gt about 750, dlm 345, extra 262).
NT_ITERS = 300
FO_ITERS = 1500


@dataclass
class OpResult:
    """What one timed operation produced, summarised after the timer stops.

    The records themselves are dropped, so memory stays flat over a run.
    `to_tol` maps each method to (first iteration with rel_error <= TOL,
    scalars sent up to it), summed over the operation's records.
    """

    iterations: int
    to_tol: dict
    failures: list
    check_s: float = 0.0
    record_bytes: int = 0

    @staticmethod
    def of(records, failures, **extra) -> "OpResult":
        to_tol = {}
        for rec in records:
            for name, trace in rec.traces.items():
                t = trace.first_below(TOL)
                if t is not None:
                    iters, scalars = to_tol.get(name, (0, 0))
                    to_tol[name] = (iters + t, scalars + trace.scalars_sent[t])
        iterations = sum(len(t) - 1 for r in records for t in r.traces.values())
        return OpResult(iterations, to_tol, failures, **extra)


def _logistic_grad_total(data, x: np.ndarray) -> np.ndarray:
    """Gradient of sum_ij log(1 + exp(-y o.x)) + reg/2 |x|^2, written apart
    from the library's own oracle: sigma(-z) = (1 - tanh(z/2)) / 2."""
    z = data.labels * (data.features @ x)
    weight = data.labels * 0.5 * (1.0 - np.tanh(0.5 * z))
    return data.reg * x - np.einsum("nm,nmp->p", weight, data.features)


def gate(record) -> list[str]:
    """Correctness of one record, checked from outside the library."""
    label = record.config.name
    problems = []
    for name, trace in record.traces.items():
        errs = np.asarray(trace.rel_error, dtype=float)
        if not np.all(np.isfinite(errs)):
            problems.append(f"{label}/{name}: non-finite rel_error")
        elif not errs[-1] <= TOL:
            problems.append(f"{label}/{name}: final rel_error {errs[-1]:.3e} > {TOL}")
    spec = record.config.data
    data = generate_logistic_data(record.config.topology.n, spec.m, spec.p,
                                  spec.rho, spec.seed)
    if data.digest() != record.dataset_digest:
        problems.append(f"{label}: dataset digest does not match its config")
    gnorm = float(np.linalg.norm(_logistic_grad_total(data, record.x_star)))
    if not gnorm <= XSTAR_TOL:
        problems.append(f"{label}: |grad F(x_star)| = {gnorm:.3e} > {XSTAR_TOL}")
    return problems


def seeded(config, seed_topology: int | None, seed_data: int):
    """Apply the benchmark's seeds through the config's seed fields."""
    topo = config.topology if seed_topology is None else \
        dataclasses.replace(config.topology, seed=seed_topology)
    return dataclasses.replace(config, topology=topo,
                               data=dataclasses.replace(config.data, seed=seed_data))


class HarnessWorkload:
    """One `run_experiment` call on a fig5-n100 config per operation."""

    def __init__(self, config):
        self.config = config

    def setup(self) -> None:
        harness.run_experiment(dataclasses.replace(self.config, iters=0))

    def op(self):
        return harness.run_experiment(self.config)

    def collect(self, raw) -> OpResult:
        return OpResult.of([raw], gate(raw))

    def close(self) -> None:
        pass


def _cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


class ReplayWorkload:
    """solve fig1, check its record, sweep topo-n10: all via `cli.main`."""

    KINDS = ("line", "cycle", "complete")

    def __init__(self, seed_topology: int | None, seed_data: int, workdir: Path):
        self.seed_args = ["--seed-data", str(seed_data)]
        if seed_topology is not None:
            self.seed_args += ["--seed-topology", str(seed_topology)]
        self.solve_config = seeded(harness.preset("fig1"), seed_topology, seed_data)
        self.sweep_config = seeded(harness.preset("topo-n10"), seed_topology, seed_data)
        workdir.mkdir(parents=True, exist_ok=True)
        self.workdir = Path(tempfile.mkdtemp(prefix="replay-", dir=workdir))

    def setup(self) -> None:
        harness.run_experiment(dataclasses.replace(self.solve_config, iters=0))
        harness.topology_sweep(dataclasses.replace(self.sweep_config, iters=0),
                               kinds=self.KINDS)

    def op(self):
        out = Path(tempfile.mkdtemp(dir=self.workdir))
        steps = {}
        for step, argv in (
                ("solve", ["solve", "--preset", "fig1", "--out", str(out / "solve")]
                 + self.seed_args),
                ("check", ["check", "--record", str(out / "solve" / "record.json")]),
                ("sweep", ["sweep", "--preset", "topo-n10", "--kinds",
                           ",".join(self.KINDS), "--out", str(out / "sweep")]
                 + self.seed_args)):
            tic = time.perf_counter()
            rc, stdout, stderr = _cli(argv)
            steps[step] = (rc, stdout, stderr, time.perf_counter() - tic)
        return out, steps

    def collect(self, raw) -> OpResult:
        out, steps = raw
        failures = []
        for step, (rc, _, stderr, _) in steps.items():
            if rc != 0:
                failures.append(f"{step} exited {rc}: {stderr.strip()[:300]}")
        if steps["solve"][0] != 0 or steps["sweep"][0] != 0:
            raise RuntimeError("; ".join(failures))
        report = json.loads(steps["check"][1]) if steps["check"][1] else {}
        if report.get("passed") is not True:
            failed = [k for k, v in report.get("checks", {}).items() if not v["passed"]]
            failures.append(f"check report failed: {failed}")
        paths = [out / "solve" / "record.json"] + \
            [out / "sweep" / kind / "record.json" for kind in self.KINDS]
        records = [harness.load_record(p) for p in paths]
        for rec in records:
            failures += gate(rec)
        nbytes = sum(p.stat().st_size for p in paths)
        shutil.rmtree(out)
        return OpResult.of(records, failures, check_s=steps["check"][3],
                           record_bytes=nbytes)

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)
        try:
            self.workdir.parent.rmdir()  # only if no other run still uses it
        except OSError:
            pass


NAMES = ("nt-n100", "fo-n100", "replay-n10")


def make(name: str, seed_topology: int | None, seed_data: int, workdir: Path):
    if name == "replay-n10":
        return ReplayWorkload(seed_topology, seed_data, workdir)
    base = seeded(harness.preset("fig5-n100"), seed_topology, seed_data)
    if name == "nt-n100":
        algos = tuple(a for a in base.algorithms if a.name == "nt")
        iters = NT_ITERS
    elif name == "fo-n100":
        algos = tuple(a for a in base.algorithms if a.name != "nt")
        iters = FO_ITERS
    else:
        raise ValueError(f"unknown workload {name!r}; expected one of {NAMES}")
    return HarnessWorkload(dataclasses.replace(base, name=name, algorithms=algos,
                                               iters=iters))
