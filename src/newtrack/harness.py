"""Experiment harness: configs, presets, runners, exports, and checks.

A run is fully determined by its config (topology seed, data seed,
algorithm parameters, budgets); re-running the same config reproduces
every trace value bit for bit.  Wall-clock columns are measured, not
derived, so they are the one exception to byte determinism across runs.
"""

from __future__ import annotations

import copy
import dataclasses
import functools
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import algorithms as alg
from . import analysis
from .objectives import (LogisticFamily, ObjectiveBounds, convexity_bounds,
                         generate_logistic_data, generate_quadratic_set)
from .topology import (Graph, MixingMatrix, SpectralStats, build_topology,
                       laplacian, metropolis_weights, spectral_stats,
                       topology_from_doc, topology_to_doc)


class Method(NamedTuple):
    """How a run starts a method, what its rounds exchange and send.

    `init(family, graph, spec)` returns the state at t = 0; the step is
    `algorithms.<name>_step(state, family, exchange(net))`: W for gt,
    I - W for nt and extra, the Laplacian for dlm (the q-form's D).  Both
    are looked up on the algorithms module at call time, so wrappers
    installed there (a tracer's) see every call, each method's apart.
    """

    init: Callable
    exchange: Callable  # Network -> the n x n operator a step is handed
    vectors: int  # (n, p) arrays exchanged per round
    needs_eps: bool


METHODS = {
    "nt": Method(lambda fam, graph, s: alg.nt_init(fam, s.alpha, s.eps),
                 lambda net: net.mix.disagreement, 1, True),
    "gt": Method(lambda fam, graph, s: alg.gt_init(fam, s.alpha),
                 lambda net: net.mix.w, 2, False),
    "extra": Method(lambda fam, graph, s: alg.extra_init(fam, s.alpha),
                    lambda net: net.mix.disagreement, 1, False),
    "dlm": Method(lambda fam, graph, s: alg.dlm_init(fam, graph, s.alpha, s.eps),
                  lambda net: laplacian(net.graph), 1, True),
}


def _required(doc: dict, key: str, kind: type, prefix: str = ""):
    """doc[key] read by kind; ValueError names it."""
    try:
        return kind(doc[key])
    except (TypeError, ValueError):
        raise ValueError(f"{prefix}{key}: not a number: {doc[key]!r}") from None


def _optional(doc: dict, key: str, kind: type, prefix: str = "", default=None):
    """doc[key] read by kind, default if absent or null; ValueError names it."""
    return default if doc.get(key) is None else _required(doc, key, kind, prefix)


def _finite_positive(name: str, value) -> None:
    if not (isinstance(value, (int, float)) and math.isfinite(value) and value > 0):
        raise ValueError(f"{name}: must be a finite number > 0, got {value!r}")


@dataclass(frozen=True)
class TopologySpec:
    kind: str
    n: int
    tau: float | None = None
    seed: int | None = None
    file: str | None = None  # pinned topology JSON overrides the generator

    @staticmethod
    def from_doc(doc: dict) -> "TopologySpec":
        return TopologySpec(kind=doc["kind"],
                            n=_required(doc, "n", int, "topology."),
                            tau=_optional(doc, "tau", float, "topology."),
                            seed=_optional(doc, "seed", int, "topology."),
                            file=doc.get("file"))


@dataclass(frozen=True)
class DataSpec:
    family: str  # "logistic" or "quadratic"
    p: int
    m: int | None = None
    rho: float | None = None
    seed: int = 0

    @staticmethod
    def from_doc(doc: dict) -> "DataSpec":
        return DataSpec(family=doc["family"], p=_required(doc, "p", int, "data."),
                        m=_optional(doc, "m", int, "data."),
                        rho=_optional(doc, "rho", float, "data."),
                        seed=_required(doc, "seed", int, "data."))


@dataclass(frozen=True)
class AlgorithmSpec:
    name: str  # "nt", "gt", "extra", "dlm"
    alpha: float
    eps: float | None = None

    @staticmethod
    def from_doc(doc: dict, prefix: str = "") -> "AlgorithmSpec":
        return AlgorithmSpec(name=doc["name"],
                             alpha=_required(doc, "alpha", float, prefix),
                             eps=_optional(doc, "eps", float, prefix))


@dataclass(frozen=True)
class RunConfig:
    """Everything needed to reproduce one experiment.

    Construction validates the fields a run relies on and raises
    ValueError naming the offending field.
    """

    name: str
    topology: TopologySpec
    data: DataSpec
    algorithms: tuple[AlgorithmSpec, ...]
    iters: int
    stop_tol: float | None = None
    ref_tol: float = 1e-12
    beta: float = 2.0
    phi: float = 2.0

    def __post_init__(self):
        if self.iters < 0:
            raise ValueError(f"iters: must be >= 0, got {self.iters}")
        if self.stop_tol is not None:
            _finite_positive("stop_tol", self.stop_tol)
        names = [a.name for a in self.algorithms]
        for i, spec in enumerate(self.algorithms):
            if spec.name not in METHODS:
                raise ValueError(f"algorithms[{i}].name: unknown algorithm "
                                 f"{spec.name!r}; expected one of {sorted(METHODS)}")
            if spec.name in names[:i]:
                raise ValueError(f"algorithms[{i}].name: {spec.name!r} appears "
                                 "twice; its traces would collide")
            if METHODS[spec.name].needs_eps and spec.eps is None:
                raise ValueError(f"algorithms[{i}].eps: {spec.name!r} needs eps")
            _finite_positive(f"algorithms[{i}].alpha", spec.alpha)
            if spec.eps is not None:
                _finite_positive(f"algorithms[{i}].eps", spec.eps)

    def to_doc(self) -> dict:
        """Fields in declaration order, nested specs as dicts; from_doc
        reads it back."""
        return dataclasses.asdict(self)

    @staticmethod
    def from_doc(doc: dict) -> "RunConfig":
        return RunConfig(
            name=doc["name"],
            topology=TopologySpec.from_doc(doc["topology"]),
            data=DataSpec.from_doc(doc["data"]),
            algorithms=tuple(AlgorithmSpec.from_doc(a, f"algorithms[{i}].")
                             for i, a in enumerate(doc["algorithms"])),
            iters=_required(doc, "iters", int),
            stop_tol=_optional(doc, "stop_tol", float),
            ref_tol=_optional(doc, "ref_tol", float, default=1e-12),
            beta=_optional(doc, "beta", float, default=2.0),
            phi=_optional(doc, "phi", float, default=2.0),
        )


@dataclass
class ConvergenceTrace:
    """Per-iteration metrics for one algorithm; entry t is iterate x^t.

    Optional lists hold None where a quantity is not defined for the
    algorithm (dual-based metrics exist only for the curvature-tracked
    method) or for the parameters (squared metric error only under a
    feasible certificate).  `status` says why the run ended: "budget"
    (all iterations ran), "stalled" (all ran, at least one, and rel_error
    ended no lower than it began), "tol" (rel_error reached stop_tol) or
    "diverged" (the next iterate had a non-finite rel_error; not recorded).
    """

    algorithm: str
    alpha: float
    eps: float | None
    status: str = "budget"
    rel_error: list = field(default_factory=list)
    gnorm_error: list = field(default_factory=list)
    tracking_residual: list = field(default_factory=list)
    kkt_primal: list = field(default_factory=list)
    kkt_dual: list = field(default_factory=list)
    remainder_norm: list = field(default_factory=list)
    remainder_bound: list = field(default_factory=list)
    comm_rounds: list = field(default_factory=list)
    scalars_sent: list = field(default_factory=list)
    wall_ms: list = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.rel_error)

    def first_below(self, tol: float) -> int | None:
        """Smallest t with rel_error[t] <= tol, or None."""
        for t, e in enumerate(self.rel_error):
            if e <= tol:
                return t
        return None

    def to_doc(self) -> dict:
        """Fields in declaration order, each column a shallow copy (its
        entries are numbers or None, so nothing deeper needs copying)."""
        return {f.name: copy.copy(getattr(self, f.name))
                for f in dataclasses.fields(self)}


@dataclass
class RunRecord:
    """Outputs of run_experiment, serializable to a single JSON file."""

    config: RunConfig
    dataset_digest: str
    x_star: np.ndarray
    ref_residual: float
    spectra: dict
    certificates: dict
    traces: dict
    topology: dict

    def to_doc(self) -> dict:
        return {
            "config": self.config.to_doc(),
            "dataset_digest": self.dataset_digest,
            "x_star": self.x_star.tolist(),
            "ref_residual": self.ref_residual,
            "spectra": self.spectra,
            "certificates": self.certificates,
            "traces": {k: v.to_doc() for k, v in self.traces.items()},
            "topology": self.topology,
        }

    @staticmethod
    def from_doc(doc: dict) -> "RunRecord":
        return RunRecord(
            config=RunConfig.from_doc(doc["config"]),
            dataset_digest=doc["dataset_digest"],
            x_star=np.asarray(doc["x_star"], dtype=float),
            ref_residual=float(doc["ref_residual"]),
            spectra=doc["spectra"],
            certificates=doc["certificates"],
            traces={k: ConvergenceTrace(**v) for k, v in doc["traces"].items()},
            topology=doc["topology"],
        )


def save_record(record: RunRecord, path) -> None:
    Path(path).write_text(json.dumps(record.to_doc(), allow_nan=False) + "\n")


def load_record(path) -> RunRecord:
    return RunRecord.from_doc(json.loads(Path(path).read_text()))


# ---------------------------------------------------------------------------
# Presets.  Step sizes follow the published settings for each scenario;
# topology and data seeds are fixed here since the original random
# instances are not reproducible.
# ---------------------------------------------------------------------------

PRESETS = {
    "fig1": RunConfig(
        name="fig1",
        topology=TopologySpec(kind="random", n=10, tau=0.5, seed=7),
        data=DataSpec(family="logistic", p=8, m=12, rho=1e-3, seed=1),
        algorithms=(AlgorithmSpec("nt", alpha=3.3, eps=3.0),),
        iters=2000,
    ),
    "fig4-n50": RunConfig(
        name="fig4-n50",
        topology=TopologySpec(kind="random", n=50, tau=0.5, seed=7),
        data=DataSpec(family="logistic", p=20, m=10, rho=1e-3, seed=1),
        algorithms=(
            AlgorithmSpec("gt", alpha=0.16),
            AlgorithmSpec("extra", alpha=0.07),
            AlgorithmSpec("dlm", alpha=0.1, eps=0.1),
            AlgorithmSpec("nt", alpha=1.1, eps=1.2),
        ),
        iters=20000,
    ),
    "fig5-n100": RunConfig(
        name="fig5-n100",
        topology=TopologySpec(kind="random", n=100, tau=0.5, seed=7),
        data=DataSpec(family="logistic", p=40, m=10, rho=1e-3, seed=1),
        algorithms=(
            AlgorithmSpec("gt", alpha=0.6),
            AlgorithmSpec("extra", alpha=1.6),
            AlgorithmSpec("dlm", alpha=0.008, eps=0.001),
            AlgorithmSpec("nt", alpha=0.08, eps=0.08),
        ),
        iters=20000,
    ),
    # More samples per node than fig1 so the local curvature dominates
    # the consensus penalty; that is the regime where the topology
    # (through lambda-hat-min) is the rate-limiting factor.
    "topo-n10": RunConfig(
        name="topo-n10",
        topology=TopologySpec(kind="complete", n=10),
        data=DataSpec(family="logistic", p=8, m=50, rho=1e-3, seed=1),
        algorithms=(AlgorithmSpec("nt", alpha=2.3, eps=2.4),),
        iters=5000,
        stop_tol=1e-9,
    ),
}
PRESET_NAMES = tuple(PRESETS)


def preset(name: str) -> RunConfig:
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}")
    return PRESETS[name]


class Network(NamedTuple):
    """The graph a config names, its mixing matrix and their spectra."""

    graph: Graph
    mix: MixingMatrix
    spectra: SpectralStats


@dataclass(frozen=True)
class Objective:
    """Local objectives with their digest, (mu, L) bounds and minimizer x*,
    solved to ref_tol on first read: certify, which never reads it, never solves."""

    family: object  # LogisticFamily or QuadraticFamily
    digest: str
    bounds: ObjectiveBounds
    ref_tol: float

    @functools.cached_property
    def x_star(self) -> np.ndarray:
        return alg.centralized_reference(self.family, tol=self.ref_tol)

    @functools.cached_property
    def ref_residual(self) -> float:
        return float(np.linalg.norm(self.family.grad_total(self.x_star)))


def build_network(topo: TopologySpec) -> Network:
    """Build, or load from a pinned file, the network a topology spec names."""
    if topo.file is not None:
        graph, mix = topology_from_doc(json.loads(Path(topo.file).read_text()))
        if graph.n != topo.n:
            raise ValueError(f"topology.n: {topo.n} but the pinned file has "
                             f"{graph.n} nodes")
    else:
        graph = build_topology(topo.kind, topo.n, tau=topo.tau, seed=topo.seed)
        mix = metropolis_weights(graph)
    return Network(graph, mix, spectral_stats(mix))


def build_objective(config: RunConfig) -> Objective:
    """Generate the config's local objectives over config.topology.n nodes
    and bound them; x* waits for its first read."""
    data, n = config.data, config.topology.n
    if data.family == "logistic":
        family = LogisticFamily(generate_logistic_data(n, data.m, data.p,
                                                       data.rho, data.seed))
    elif data.family == "quadratic":
        family = generate_quadratic_set(n, data.p, data.seed)
    else:
        raise ValueError(f"unknown data family {data.family!r}")
    return Objective(family, family.digest(), convexity_bounds(family),
                     config.ref_tol)


def run_experiment(config: RunConfig) -> RunRecord:
    """Build the config's network and objective, run every algorithm."""
    return _run(config, build_network(config.topology), build_objective(config))


def _run(config: RunConfig, net: Network, obj: Objective) -> RunRecord:
    certificates = {}
    traces = {}
    for spec in config.algorithms:
        cert = None
        if spec.name == "nt":
            cert = analysis.rate_certificate(obj.bounds, net.spectra, spec.alpha,
                                             spec.eps, config.beta, config.phi)
            certificates[spec.name] = cert.to_doc()
        traces[spec.name] = _run_algorithm(spec, net, obj, cert, config)
    return RunRecord(config=config, dataset_digest=obj.digest, x_star=obj.x_star,
                     ref_residual=obj.ref_residual,
                     spectra={"lambda_max": net.spectra.lambda_max,
                              "lambda_min_nz": net.spectra.lambda_min_nz},
                     certificates=certificates, traces=traces,
                     topology=topology_to_doc(net.graph, net.mix))


def _run_algorithm(spec: AlgorithmSpec, net: Network, obj: Objective, cert,
                   config: RunConfig) -> ConvergenceTrace:
    """Run one method for config.iters rounds, recording every iterate.

    Stops early at stop_tol ("tol") or before recording the first iterate
    with a non-finite rel_error ("diverged").
    """
    family, w, root = obj.family, net.mix.w, net.spectra.root
    n, p = family.n, family.p
    method = METHODS[spec.name]
    step = getattr(alg, f"{spec.name}_step")
    op = method.exchange(net)
    target = np.tile(obj.x_star, (n, 1))
    denom = max(alg.norm(target), 1e-300)
    trace = ConvergenceTrace(algorithm=spec.name, alpha=spec.alpha, eps=spec.eps)

    # Only nt's trace records a dual iterate v (primal-dual form), the
    # conservation identity and a remainder; the others record None.
    is_nt = spec.name == "nt"
    feasible = cert is not None and cert.feasible
    if feasible:
        energy = analysis.g_norm_metric(
            analysis.consensus_penalty_matrix(w, spec.alpha, spec.eps),
            obj.x_star, analysis.dual_optimum(family, obj.x_star, root), spec.alpha)
    v = np.zeros((n, p))

    def push(state, wall, root_x, rem=None, rem_bound=None) -> bool:
        """Record state, root_x = root @ state.x; False, recording nothing,
        if rel_error is not finite."""
        rel = alg.norm(state.x - target) / denom
        if not math.isfinite(rel):
            return False
        trace.rel_error.append(rel)
        trace.kkt_primal.append(alg.norm(root_x))
        if is_nt:
            # The step already evaluated the gradient at state.x.
            dual = alg.norm(state.grad + root @ v)
            gnorm = energy(state.x, v) if feasible else None
            tracking = alg.conservation_residual(state)
        else:
            dual = gnorm = tracking = None
        trace.kkt_dual.append(dual)
        trace.gnorm_error.append(gnorm)
        trace.tracking_residual.append(tracking)
        trace.remainder_norm.append(rem)
        trace.remainder_bound.append(rem_bound)
        trace.comm_rounds.append(state.t)
        trace.scalars_sent.append(state.t * method.vectors * n * p)
        trace.wall_ms.append(wall)
        return True

    def reached() -> bool:
        return config.stop_tol is not None and trace.rel_error[-1] <= config.stop_tol

    state = method.init(family, net.graph, spec)
    push(state, 0.0, root @ state.x)
    # A diverging run overflows on its way to the first non-finite
    # rel_error; the trace reports that as status "diverged".
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(config.iters):
            if reached():
                break
            tic = time.perf_counter()
            new = step(state, family, op)
            wall = (time.perf_counter() - tic) * 1e3
            root_x = root @ new.x
            rem = rem_bound = None
            if is_nt:
                v = v + spec.alpha * root_x
                # Second-order remainder of the step x -> x - u, from
                # q = (H + eps I) u: e = g0 - g1 - q0 + eps u0 + alpha (I - W) u0.
                e = state.grad - new.grad
                e -= state.q
                e += spec.eps * state.u
                e += spec.alpha * (op @ state.u)
                rem = alg.norm(e)
                rem_bound = cert.kappa * alg.norm(new.x - state.x)
            state = new
            if not push(state, wall, root_x, rem, rem_bound):
                trace.status = "diverged"
                break
    if trace.status == "budget" and reached():
        trace.status = "tol"
    elif trace.status == "budget" and len(trace) > 1 \
            and trace.rel_error[-1] >= trace.rel_error[0]:
        trace.status = "stalled"
    return trace


def topology_sweep(config: RunConfig, kinds=("line", "cycle", "complete")
                   ) -> dict:
    """Re-run one config across topology kinds; returns kind -> RunRecord.

    Every kind's network is built before the one objective they share.
    Kinds must be distinct and at least one.
    """
    configs = {}
    for kind in kinds:
        if kind in configs:
            raise ValueError(f"kinds: {kind!r} appears twice")
        topo = TopologySpec(kind=kind, n=config.topology.n,
                            tau=config.topology.tau if kind == "random" else None,
                            seed=config.topology.seed if kind == "random" else None)
        configs[kind] = dataclasses.replace(config, name=f"{config.name}-{kind}",
                                            topology=topo)
    if not configs:
        raise ValueError("kinds: empty; name at least one topology kind")
    nets = {kind: build_network(c.topology) for kind, c in configs.items()}
    obj = build_objective(config)
    return {kind: _run(c, nets[kind], obj) for kind, c in configs.items()}


# ---------------------------------------------------------------------------
# Exports.
# ---------------------------------------------------------------------------

CSV_COLUMNS = ("iter", "comm_rounds", "scalars_sent", "rel_error",
               "gnorm_error", "tracking_residual", "kkt_primal", "kkt_dual",
               "wall_ms")


def export_csv(record: RunRecord, out_dir) -> list[Path]:
    """One CSV per algorithm with the fixed column set; returns the paths.

    Counts print as integers, metrics by repr, their shortest round-trip
    decimal form; undefined metrics leave the cell empty.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for name, trace in record.traces.items():
        columns = [range(len(trace))] + [getattr(trace, c) for c in CSV_COLUMNS[1:]]
        lines = [",".join(CSV_COLUMNS)]
        lines += [",".join("" if v is None else repr(v) for v in row)
                  for row in zip(*columns)]
        path = out_dir / f"{name}.csv"
        path.write_text("\n".join(lines) + "\n")
        paths.append(path)
    return paths


PLOT_STUB = '''#!/usr/bin/env python3
"""Quick look at exported traces: python plot.py"""
import csv
import glob

import matplotlib.pyplot as plt

for path in sorted(glob.glob("*.csv")):
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    iters = [int(r["iter"]) for r in rows if r["rel_error"]]
    err = [float(r["rel_error"]) for r in rows if r["rel_error"]]
    plt.semilogy(iters, err, label=path[:-4])
plt.xlabel("iteration")
plt.ylabel("relative error")
plt.legend()
plt.tight_layout()
plt.savefig("traces.png", dpi=150)
print("wrote traces.png")
'''


def write_outputs(record: RunRecord, out_dir) -> dict:
    """record.json + per-algorithm CSVs + a plot stub under out_dir."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    record_path = out_dir / "record.json"
    save_record(record, record_path)
    csv_paths = export_csv(record, out_dir)
    stub = out_dir / "plot.py"
    stub.write_text(PLOT_STUB)
    return {"record": str(record_path),
            "csv": [str(p) for p in csv_paths],
            "plot": str(stub)}


# ---------------------------------------------------------------------------
# Invariant suite over a recorded run.
# ---------------------------------------------------------------------------

@dataclass
class CheckReport:
    checks: dict

    @property
    def passed(self) -> bool:
        return all(c["passed"] for c in self.checks.values())

    def to_doc(self) -> dict:
        return {"passed": self.passed, "checks": self.checks}


def run_checks(record: RunRecord, window: int = 100) -> CheckReport:
    """Re-derive everything the record claims and test the core identities.

    Re-runs the config and compares every record field but the wall-clock
    column (determinism), then replays short trajectories to test
    conservation, formulation equivalence, the remainder bound, the
    per-step stationarity identity, and (when certified) contraction.
    """
    if window < 0:
        raise ValueError(f"window: must be >= 0, got {window}")
    checks = {}
    config = record.config
    net, obj = build_network(config.topology), build_objective(config)
    doc, again = record.to_doc(), _run(config, net, obj).to_doc()
    fields = [key for key in doc if key != "traces" and doc[key] != again[key]]
    columns = [f"{name}.{column}"
               for name, trace in doc["traces"].items()
               for column, values in trace.items()
               if column != "wall_ms"
               and again["traces"].get(name, {}).get(column) != values]
    checks["determinism"] = {
        "passed": not (fields or columns),
        "detail": {"digest_match": "dataset_digest" not in fields,
                   "trace_match": not columns, "mismatched": fields + columns}}
    checks.update(_replay_checks(record, net, obj, window))
    return CheckReport(checks=checks)


@np.errstate(over="ignore", invalid="ignore")
def _replay_checks(record: RunRecord, net: Network, obj: Objective,
                   window: int) -> dict:
    """Identity and bound checks over up to `window` replayed steps.

    Replays cover the iterates the record holds, so they stop where a
    diverged run stopped; overflow on the way there shows as failed
    checks, not as warnings.
    """
    checks = {}
    config = record.config
    mix, spectra = net.mix, net.spectra
    family, x_star = obj.family, obj.x_star

    specs = {s.name: s for s in config.algorithms}
    if "nt" in specs:
        spec = specs["nt"]
        steps = min(len(record.traces["nt"]) - 1, window)
        state = alg.nt_init(family, spec.alpha, spec.eps)
        pd = alg.pd_init(family, spectra.root, spec.alpha, spec.eps)
        xs, vs = [pd.x], [pd.v]
        cons_worst = alg.conservation_residual(state)
        equiv_worst = 0.0
        for _ in range(steps):
            state = alg.nt_step(state, family, mix.disagreement)
            pd = alg.pd_step(pd, family, mix.w)
            xs.append(pd.x)
            vs.append(pd.v)
            cons_worst = max(cons_worst, alg.conservation_residual(state))
            equiv_worst = max(equiv_worst, float(np.max(np.abs(state.x - pd.x))))
        checks["conservation"] = {"passed": cons_worst < 1e-9,
                                  "detail": {"worst": cons_worst}}
        checks["equivalence"] = {"passed": equiv_worst < 1e-8,
                                 "detail": {"worst": equiv_worst,
                                            "steps": steps}}
        rem = analysis.lemma_remainder_check(xs, family, mix.w, spec.alpha,
                                             obj.bounds)
        checks["remainder_bound"] = {"passed": rem.passed,
                                     "detail": {"violations": rem.violations,
                                                "worst": rem.worst}}
        cert = analysis.rate_certificate(obj.bounds, spectra, spec.alpha,
                                         spec.eps, config.beta, config.phi)
        v_star = analysis.dual_optimum(family, x_star, spectra.root)
        ident = analysis.stationarity_identity_check(
            xs, vs, family, mix.w, spectra.root, spec.alpha, spec.eps,
            x_star, v_star)
        checks["stationarity_identity"] = {
            "passed": ident.passed,
            "detail": {"worst": ident.worst}}
        if cert.feasible:
            contr = analysis.contraction_check(xs, vs, x_star, v_star,
                                               mix.w, cert)
            checks["contraction"] = {
                "passed": contr.passed,
                "detail": {"violations": contr.violations,
                           "worst_ratio": contr.worst,
                           "bound": cert.contraction}}

    if "gt" in specs:
        state = alg.gt_init(family, specs["gt"].alpha)
        worst = 0.0
        for _ in range(min(len(record.traces["gt"]) - 1, window)):
            state = alg.gt_step(state, family, mix.w)
            g = state.grad
            diff = np.linalg.norm(state.y.mean(axis=0) - g.mean(axis=0))
            worst = max(worst, float(diff / (np.linalg.norm(g.mean(axis=0)) + 1.0)))
        checks["tracker_mean"] = {"passed": worst < 1e-9,
                                  "detail": {"worst": worst}}
    return checks
