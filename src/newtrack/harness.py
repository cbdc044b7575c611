"""Experiment harness: configs, presets, runners, exports, and checks.

A run is fully determined by its config (topology seed, data seed,
algorithm parameters, budgets); re-running the same config reproduces
every trace value bit for bit.  Wall-clock columns are measured, not
derived, so they are the one exception to byte determinism across runs.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import os
import pickle
import signal
import time
import typing
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple, TypedDict

import numpy as np

from . import algorithms as alg
from . import analysis
from .objectives import (ObjectiveBounds, convexity_bounds,
                         generate_logistic_data, generate_quadratic_set)
from .topology import (Graph, MixingMatrix, SpectralStats, build_topology,
                       known_kind, metropolis_weights, random_budget,
                       spectral_stats)


# Data family -> (n, DataSpec) -> its local objectives.  The generators are
# looked up on this module at call time, so wrappers installed here see
# every call.
FAMILIES = {
    "logistic": lambda n, d: generate_logistic_data(n, d.m, d.p, d.rho, d.seed),
    "quadratic": lambda n, d: generate_quadratic_set(n, d.p, d.seed),
}


class Method(NamedTuple):
    """How a run starts a method: `init(family, net, spec)` returns the
    state at t = 0, which carries the exchange operator and the vectors a
    round sends; the step is `algorithms.<name>_step(state, family)`.  Both
    are looked up on the algorithms module at call time, so wrappers
    installed there (a tracer's) see every call, each method's apart.
    """

    init: Callable
    needs_eps: bool


METHODS = {
    "nt": Method(lambda fam, net, s: alg.nt_init(fam, net.mix, s.alpha, s.eps), True),
    "gt": Method(lambda fam, net, s: alg.gt_init(fam, net.mix, s.alpha), False),
    "extra": Method(lambda fam, net, s: alg.extra_init(fam, net.mix, s.alpha), False),
    "dlm": Method(lambda fam, net, s: alg.dlm_init(fam, net.graph, s.alpha, s.eps), True),
}


_hints = functools.cache(typing.get_type_hints)


def _shaped(name: str, value, kind: type):
    """value if it is a kind, dict (a JSON object) or list; ValueError names it."""
    if not isinstance(value, kind):
        raise ValueError(f"{name}: must be {'an object' if kind is dict else 'a list'}")
    return value


@functools.cache
def _form(kind) -> tuple:
    """kind's origin and arguments, and the types a JSON value of kind is
    taken as, unread: a scalar kind's, or X's and None's for X | None."""
    origin, args = typing.get_origin(kind) or kind, typing.get_args(kind)
    exact = frozenset(args if type(None) in args else (kind,))
    return origin, args, exact if exact <= {str, bool, int, float, type(None)} else frozenset()


def _decode(kind, value, path: str, root: str = ""):
    """value, the JSON entry at path, read as the annotation kind.

    A dataclass or TypedDict is read from an object holding its keys and
    no other, where only a dataclass field whose default is None may be
    absent; tuples, lists and dicts of a kind entry by entry; a bool from
    true or false alone; an int, float or array from numbers, which a
    string may spell (no bool or null, in an array neither; an int no
    fraction); a scalar of exactly a declared type, or a list of them
    (one scan of types), as it stands.  A ValueError names the path.  A
    range check of construction names its field from the config's root,
    so its message gains root, the path of the enclosing RunConfig.
    """
    origin, args, exact = _form(kind)
    if type(value) in exact:
        return value
    if type(None) in args:  # X | None
        return None if value is None else _decode(args[0], value, path, root)
    if origin in (tuple, list) and args:
        entries = _shaped(path, value, list)
        if origin is list and _form(args[0])[2].issuperset(map(type, entries)):
            return entries
        return origin(_decode(args[0], entry, f"{path}[{i}]", root)
                      for i, entry in enumerate(entries))
    if origin is dict and args:
        return {key: _decode(args[1], entry, f"{path}.{key}", root)
                for key, entry in _shaped(path, value, dict).items()}
    if dataclasses.is_dataclass(kind) or typing.is_typeddict(kind):
        doc, prefix = _shaped(path or "document", value, dict), path and f"{path}."
        hints = _hints(kind)
        for key in doc:
            if key not in hints:
                raise ValueError(f"{prefix}{key}: unknown key; expected one of {list(hints)}")
        if kind is RunConfig:
            root = prefix
        values = {}
        for name, hint in hints.items():
            if name in doc:
                values[name] = _decode(hint, doc[name], prefix + name, root)
            elif getattr(kind, name, "required") is not None:  # a default of None
                raise ValueError(f"{prefix}{name}: missing")
        try:
            return kind(**values)
        except ValueError as err:
            if not root:
                raise
            raise ValueError(f"{root}{err}") from None
    if kind in (str, bool):
        raise ValueError(f"{path}: must be a {'string' if kind is str else 'boolean'}, "
                         f"got {value!r}")
    if kind is int and (isinstance(value, bool) or
                        isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"{path}: not an integer: {value!r}")
    for entry in np.ravel(np.array(value, dtype=object)) if kind is np.ndarray else [value]:
        if isinstance(entry, bool) or entry is None:  # else read as 1.0, nan
            raise ValueError(f"{path}: not a number: {entry!r}")
    try:
        return np.asarray(value, dtype=float) if kind is np.ndarray else kind(value)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{path}: not a number: {value!r}") from None


def _encode(value):
    """value as a JSON document: dataclasses as objects in field order,
    tuples and dicts entry by entry, arrays by tolist.  A list is copied
    shallowly: its entries are numbers or None, or lists of them."""
    if dataclasses.is_dataclass(value):
        return {f.name: _encode(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        return {key: _encode(entry) for key, entry in value.items()}
    if isinstance(value, tuple):
        return [_encode(entry) for entry in value]
    if isinstance(value, list):
        return list(value)
    return value.tolist() if isinstance(value, np.ndarray) else value


def _number(name: str, value, kind: type = float) -> None:
    """The loader's rules (None passes): no bool, and an int field holds an int."""
    if isinstance(value, bool) or kind is int and not isinstance(value, (int, type(None))):
        raise ValueError(f"{name}: not {'an integer' if kind is int else 'a number'}: "
                         f"{value!r}")


def _at_least(name: str, value, low: int) -> None:
    _number(name, value, int)
    if value is None or value < low:
        raise ValueError(f"{name}: must be >= {low}, got {value!r}")


def _finite_above(name: str, value) -> None:
    _number(name, value)
    if not (isinstance(value, (int, float)) and math.isfinite(value) and value > 0):
        raise ValueError(f"{name}: must be a finite number > 0, got {value!r}")


def _one_of(name: str, value, allowed) -> None:
    if value not in allowed:
        raise ValueError(f"{name}: unknown {value!r}; expected one of {list(allowed)}")


@dataclass(frozen=True)
class TopologySpec:
    """Construction checks the fields build_network reads, the generator's
    by topology's rules; a pinned file replaces the generator, and with it
    tau and seed."""

    kind: str  # one of topology.KINDS
    n: int
    tau: float | None = None
    seed: int | None = None
    file: str | None = None  # pinned topology JSON overrides the generator

    def __post_init__(self):
        try:
            known_kind(self.kind)
            _at_least("n", self.n, 2)  # I - W needs a nonzero eigenvalue
            _number("tau", self.tau)
            if self.tau is not None and not math.isfinite(self.tau):  # a record cannot hold it
                raise ValueError(f"tau: must be a finite number, got {self.tau!r}")
            if self.seed is not None:
                _at_least("seed", self.seed, 0)
            if self.kind == "random" and self.file is None:
                random_budget(self.n, self.tau, self.seed)
        except ValueError as err:
            raise ValueError(f"topology.{err}") from None


@dataclass(frozen=True)
class DataSpec:
    """Construction checks the fields the family's generator reads."""

    family: str  # a key of FAMILIES
    p: int
    m: int | None = None  # samples per node, logistic only
    rho: float | None = None  # total ridge weight, logistic only
    seed: int = 0

    def __post_init__(self):
        _one_of("data.family", self.family, FAMILIES)
        _at_least("data.p", self.p, 1)
        _at_least("data.seed", self.seed, 0)
        if self.family == "logistic":
            _at_least("data.m", self.m, 1)
            _finite_above("data.rho", self.rho)  # mu = rho / n must be > 0
        else:  # set, they would change no number, yet the record would keep them
            for name in ("m", "rho"):
                if getattr(self, name) is not None:
                    raise ValueError(f"data.{name}: {self.family!r} takes no {name}")


@dataclass(frozen=True)
class AlgorithmSpec:
    name: str  # "nt", "gt", "extra", "dlm"
    alpha: float
    eps: float | None = None


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

    def __post_init__(self):
        _at_least("iters", self.iters, 0)
        if self.stop_tol is not None:
            _finite_above("stop_tol", self.stop_tol)
        if not self.algorithms:
            raise ValueError("algorithms: empty; name at least one method")
        names = [a.name for a in self.algorithms]
        for i, spec in enumerate(self.algorithms):
            _one_of(f"algorithms[{i}].name", spec.name, METHODS)
            if spec.name in names[:i]:
                raise ValueError(f"algorithms[{i}].name: {spec.name!r} appears "
                                 "twice; its traces would collide")
            if METHODS[spec.name].needs_eps != (spec.eps is not None):
                takes = "needs eps" if spec.eps is None else "takes no eps"
                raise ValueError(f"algorithms[{i}].eps: {spec.name!r} {takes}")
            _finite_above(f"algorithms[{i}].alpha", spec.alpha)
            if spec.eps is not None:
                _finite_above(f"algorithms[{i}].eps", spec.eps)

    def to_doc(self) -> dict:
        """Fields in declaration order, nested specs as objects and the
        algorithms as a list; from_doc reads it back."""
        return _encode(self)

    @staticmethod
    def from_doc(doc: dict) -> "RunConfig":
        return _decode(RunConfig, doc, "")


@dataclass
class ConvergenceTrace:
    """Per-iteration metrics for one algorithm; entry t is iterate x^t,
    after t communication rounds of scalars_per_round scalars each.

    kkt_primal is ||root x||, with root the square root of I - W: zero at
    consensus.  kkt_dual is ||q - alpha (I - W) x||, which equals the
    primal-dual form's residual ||grad(x) + root v|| in exact arithmetic.
    Optional lists hold None where a quantity is not defined for the
    algorithm (dual-based metrics exist only for the curvature-tracked
    method) or for the parameters (squared metric error only under a
    feasible certificate).  `status` says why the run ended: "budget"
    (all iterations ran), "stalled" (all ran, at least one, and rel_error
    ended no lower than it began), "tol" (rel_error reached stop_tol) or
    "diverged" (the next iterate had a non-finite rel_error; not recorded).
    rel_error and wall_ms are recorded as each round ends; the other
    columns once per block of rounds, each entry bit for bit the value
    computed from its iterate alone (see _run_algorithm).
    """

    status: str = "budget"
    rel_error: list[float] = field(default_factory=list)
    gnorm_error: list[float | None] = field(default_factory=list)
    tracking_residual: list[float | None] = field(default_factory=list)
    kkt_primal: list[float] = field(default_factory=list)
    kkt_dual: list[float | None] = field(default_factory=list)
    remainder_norm: list[float | None] = field(default_factory=list)
    remainder_bound: list[float | None] = field(default_factory=list)
    wall_ms: list[float] = field(default_factory=list)
    scalars_per_round: int = field(kw_only=True)

    def __len__(self) -> int:
        return len(self.rel_error)

    @property
    def scalars_sent(self) -> range:
        """Scalars sent up to each iterate: t scalars_per_round at t."""
        return range(0, len(self) * self.scalars_per_round, self.scalars_per_round)

    def first_below(self, tol: float) -> int | None:
        """Smallest t with rel_error[t] <= tol, or None."""
        for t, e in enumerate(self.rel_error):
            if e <= tol:
                return t
        return None

    def to_doc(self) -> dict:
        """Fields in declaration order, each column a shallow copy."""
        return _encode(self)


class Spectra(TypedDict):
    """The extreme nonzero eigenvalues of I - W (see SpectralStats)."""

    lambda_max: float
    lambda_min_nz: float


class PinnedTopology(TypedDict):
    """A graph and its mixing weights W, as a record keeps them and a
    config's topology.file pins them: edges as sorted pairs i < j."""

    n: int
    edges: list[list[int]]
    weights: list[list[float]]


def topology_to_doc(graph: Graph, mix: MixingMatrix) -> PinnedTopology:
    """The document pinning graph and its weights; topology_from_doc reads it."""
    return PinnedTopology(n=graph.n, edges=graph.edge_index.tolist(),
                          weights=mix.w.tolist())


def topology_from_doc(doc: dict, n: int | None = None) -> tuple[Graph, MixingMatrix]:
    """Inverse of topology_to_doc: its keys read by the loader's rules
    (other keys, which spectra --out writes, ignored), then the graph's.
    With n given, a doc of another size fails before any graph is built."""
    doc = {k: doc[k] for k in _hints(PinnedTopology) if k in _shaped("document", doc, dict)}
    if n is not None and (size := _decode(int, doc.get("n", n), "n")) != n:
        raise ValueError(f"topology.n: {n} but the pinned file has {size} nodes")
    return _pinned_network(_decode(PinnedTopology, doc, ""))


def _pinned_network(doc: PinnedTopology, prefix: str = "") -> tuple[Graph, MixingMatrix]:
    """A decoded pinned topology's graph and W by their rules, errors under prefix."""
    try:
        graph = Graph(n=doc["n"], edges=tuple(sorted(map(tuple, doc["edges"]))))
        if list(map(len, doc["weights"])) != [graph.n] * graph.n:
            raise ValueError(f"weights: must be {graph.n} rows of {graph.n} numbers")
        w = np.array(doc["weights"])
        # Each node mixes with its neighbours alone: off the diagonal, w is
        # nonzero exactly on the edges, where the Laplacian exchanges.
        stray = (w != 0) != (graph.adjacency() != 0)
        np.fill_diagonal(stray, False)
        if stray.any():
            i, j = np.argwhere(stray)[0]
            raise ValueError(f"weights: w[{i}, {j}] = {float(w[i, j])!r} but ({i}, {j}) "
                             f"is {'not ' if w[i, j] else ''}an edge")
        return graph, MixingMatrix(w=w)
    except ValueError as err:
        raise ValueError(f"{prefix}{err}") from None


@dataclass
class RunRecord:
    """Outputs of run_experiment, serializable to a single JSON file."""

    config: RunConfig
    dataset_digest: str
    x_star: np.ndarray
    ref_residual: float
    spectra: Spectra
    certificates: dict[str, analysis.Certificate]
    traces: dict[str, ConvergenceTrace]
    topology: PinnedTopology

    def to_doc(self) -> dict:
        return _encode(self)

    @staticmethod
    def from_doc(doc: dict) -> "RunRecord":
        """doc by the loader's rules, its topology's size and network then
        by a pinned file's."""
        record = _decode(RunRecord, doc, "")
        if (size := record.topology["n"]) != (n := record.config.topology.n):
            raise ValueError(f"config.topology.n: {n} but the pinned file has {size} nodes")
        _pinned_network(record.topology, "topology.")
        return record


def _columns(record: RunRecord) -> dict:
    """name -> field -> JSON text of each trace's fields: the one pass that
    formats trace values, which record.json and the CSVs both read.  A NaN
    or infinity raises ValueError naming its column."""
    columns = {}
    for name, trace in record.traces.items():
        texts = columns[name] = {}
        for f in dataclasses.fields(trace):
            try:
                texts[f.name] = json.dumps(getattr(trace, f.name), allow_nan=False)
            except ValueError:
                raise ValueError(f"traces.{name}.{f.name}: not a finite number") from None
    return columns


def _object(items) -> str:
    """The JSON object of (key, JSON text) pairs, laid out as json.dumps does."""
    return "{" + ", ".join(f"{json.dumps(key)}: {text}" for key, text in items) + "}"


def _record_text(record: RunRecord, columns: dict) -> str:
    """json.dumps(record.to_doc(), allow_nan=False) + a newline, byte for
    byte, with the traces assembled from their columns' texts."""
    traces = _object((name, _object(texts.items())) for name, texts in columns.items())
    return _object((f.name, traces if f.name == "traces" else
                    json.dumps(_encode(getattr(record, f.name)), allow_nan=False))
                   for f in dataclasses.fields(record)) + "\n"


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
    """Local objectives with their digest, (mu, L) bounds and optimum (x* and
    the node gradients g* at it), solved on first read: certify never solves."""

    family: object  # one of FAMILIES, read through the objectives protocol
    digest: str
    bounds: ObjectiveBounds

    @functools.cached_property
    def optimum(self) -> tuple[np.ndarray, np.ndarray]:
        return alg.centralized_reference(self.family)


def build_network(topo: TopologySpec, carried: PinnedTopology | None = None) -> Network:
    """Build, or load from a pinned file, the network a topology spec names;
    a pinned file that does not exist is read from carried, when given."""
    if topo.file is not None and carried is not None and not Path(topo.file).exists():
        graph, mix = _pinned_network(carried)
    elif topo.file is not None:
        graph, mix = topology_from_doc(json.loads(Path(topo.file).read_text()), topo.n)
    else:
        graph = build_topology(topo.kind, topo.n, tau=topo.tau, seed=topo.seed)
        mix = metropolis_weights(graph)
    return Network(graph, mix, spectral_stats(mix))


def build_objective(config: RunConfig) -> Objective:
    """Generate the config's local objectives over config.topology.n nodes
    and bound them; the optimum waits for its first read."""
    family = FAMILIES[config.data.family](config.topology.n, config.data)
    return Objective(family, family.digest(), convexity_bounds(family))


def run_experiment(config: RunConfig) -> RunRecord:
    """Build the config's network and objective, run every algorithm."""
    return _run(config, build_network(config.topology), build_objective(config))


def _run(config: RunConfig, net: Network, obj: Objective) -> RunRecord:
    """Run every algorithm of config on net and obj, side by side in forked
    workers when _workers allows; nt's trace reads its rate certificate,
    which the record keeps.  The optimum and the certificates are solved
    first, so that no worker solves them again."""
    certificates = {spec.name: analysis.rate_certificate(obj.bounds, net.spectra,
                                                         spec.alpha, spec.eps)
                    for spec in config.algorithms if spec.name == "nt"}
    x_star, g_star = obj.optimum
    traces = _side_by_side({spec.name: functools.partial(
        _run_algorithm, spec, net, obj, certificates.get(spec.name), config)
        for spec in config.algorithms}, _workers(config))
    return RunRecord(config=config, dataset_digest=obj.digest, x_star=x_star,
                     ref_residual=alg.norm(np.add.reduce(g_star, axis=0)),
                     spectra=Spectra(lambda_max=net.spectra.lambda_max,
                                     lambda_min_nz=net.spectra.lambda_min_nz),
                     certificates=certificates, traces=traces,
                     topology=topology_to_doc(net.graph, net.mix))


# Rounds from which _run spreads a config's methods over forked workers.  A
# run side by side costs about 4-6 ms more on a 2-CPU x86-64 VM, with
# fig5-n100's objects in memory: the fork, pinning each process to its
# CPUs, reaping the worker, and the first writes of both processes to pages
# they now share.  At 300 rounds fig4-n50 gains (64 -> 55 ms) and CI's
# four-method quadratic config (n 12, p 4) about breaks even (19 ms serial,
# 16-21 ms side by side); two methods on 5 nodes, at 9 us a round, need
# about 800.
FORK_ITERS = 300


def _workers(config: RunConfig) -> int:
    """Processes that run config's methods: one per usable CPU, at most one
    per method, and one alone (no fork) below FORK_ITERS rounds or where the
    platform cannot tell which CPUs the process may use."""
    if config.iters < FORK_ITERS or not hasattr(os, "sched_getaffinity"):
        return 1
    return min(len(config.algorithms), len(os.sched_getaffinity(0)))


def _side_by_side(tasks: dict, workers: int) -> dict:
    """name -> tasks[name](), in the order of tasks.

    With one worker the tasks run here, one after another.  Otherwise this
    process and workers - 1 forked children each take the next task in
    order as they free up (its index, one byte, read from a shared pipe),
    and each child sends back its results pickled before it exits.  Each
    child is pinned to a usable CPU of its own and this process to the
    rest until the call returns, since the scheduler may leave a child on
    its parent's CPU for tenths of a second.  A failure raises as the
    serial loop would: the error of the first task in order that failed,
    or a RuntimeError naming a task whose worker exited without its result.
    No child outlives the call.
    """
    if workers == 1:
        return {name: task() for name, task in tasks.items()}
    names = list(tasks)
    usable = os.sched_getaffinity(0)
    own = sorted(usable)[1:workers]  # each child's CPU
    queue, put = os.pipe()
    os.write(put, bytes(range(len(names))))
    os.close(put)

    def take() -> dict:
        done = {}
        while index := os.read(queue, 1):
            try:
                done[index[0]] = True, tasks[names[index[0]]]()
            except Exception as err:  # noqa: BLE001 - raised below, in task order
                done[index[0]] = False, err
        return done

    children = {}  # pid -> the read end of its result pipe
    try:
        os.sched_setaffinity(0, usable - set(own))
        for cpu in own:
            r, w = os.pipe()
            if (pid := os.fork()) == 0:
                try:
                    os.sched_setaffinity(0, {cpu})
                    os.close(r)
                    with open(w, "wb") as out:
                        pickle.dump(take(), out, pickle.HIGHEST_PROTOCOL)
                    os._exit(0)
                finally:
                    os._exit(1)
            os.close(w)
            children[pid] = open(r, "rb")
        done = take()
        for pid, results in list(children.items()):
            with results:
                data = results.read()
            if os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == 0:
                done.update(pickle.loads(data))
            del children[pid]
    finally:
        os.close(queue)
        for pid, results in children.items():
            results.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        os.sched_setaffinity(0, usable)
    out = {}
    for i, name in enumerate(names):
        ok, value = done.get(i, (False, None))
        if not ok:
            raise value or RuntimeError(f"algorithms: {name!r} ran in a worker process "
                                        "that exited without its result")
        out[name] = value
    return out


# Bytes of the iterates one block of trace metrics stacks: x, grad, q, u and
# dx for nt, x for the others.  That is 18 nt rounds at n p = 80 (fig1,
# topo-n10) and one round of any method at n p = 4000 (fig5-n100).
BLOCK_BYTES = 60_000


def _shift(prev, states: list, names: tuple) -> list:
    """For each field name: that field of each state's predecessor and of
    each state, as (T, n, p) stacks: views of a state's own arrays when it
    is alone in its block (with no predecessor at t = 0), else of one
    stacked copy."""
    if len(states) == 1:
        return [(None if prev is None else getattr(prev, name)[None],
                 getattr(states[0], name)[None]) for name in names]
    shape = (len(states) + 1, *prev.x.shape)
    stacks = (np.concatenate([getattr(s, name) for s in (prev, *states)]).reshape(shape)
              for name in names)
    return [(both[:-1], both[1:]) for both in stacks]


def _run_algorithm(spec: AlgorithmSpec, net: Network, obj: Objective,
                   cert: analysis.Certificate | None, config: RunConfig) -> ConvergenceTrace:
    """Run one method for config.iters rounds, recording every iterate.

    Each round records wall_ms and rel_error, which the stop tests read:
    the run stops at stop_tol ("tol") or before recording the first
    iterate with a non-finite rel_error ("diverged").  The other columns
    are computed per block of up to BLOCK_BYTES of stacked iterates, from
    (T, n, p) stacks (views of the state's arrays in a block of one):
    root @ x as a broadcast matmul, norms by one vecdot over rows, node
    sums over axis 1, each bit for bit the per-iterate value.  cert is
    nt's rate certificate document (None for the others).
    """
    family, root = obj.family, net.spectra.root
    n, p = family.n, family.p
    step = getattr(alg, f"{spec.name}_step")
    x_star, g_star = obj.optimum
    target = np.tile(x_star, (n, 1))
    denom = max(alg.norm(target), 1e-300)
    state = METHODS[spec.name].init(family, net, spec)
    trace = ConvergenceTrace(scalars_per_round=(1 + state.second_exchange) * n * p)

    # Only nt's trace records kkt_dual = ||q - alpha (I - W) x|| (the
    # primal-dual ||grad + root v|| in exact arithmetic), the conservation
    # identity and a remainder; the others record None.  The dual iterate v
    # and the metric, with its optimum v*, are kept only under a feasible
    # certificate.
    is_nt = spec.name == "nt"
    feasible = is_nt and cert["feasible"]
    if feasible:
        energy = analysis.g_norm_metric(
            analysis.consensus_penalty_matrix(net.mix.w, spec.alpha, spec.eps),
            x_star, analysis.dual_optimum(g_star, root), spec.alpha)
        v = np.zeros((n, p))
    fields = ("x", "grad", "q", "u", "dx") if is_nt else ("x",)
    size = max(1, BLOCK_BYTES // (len(fields) * n * p * 8))
    prev = None  # the iterate before the block

    def record(states: list) -> None:
        nonlocal prev, v
        (x0, x), *nt_pairs = _shift(prev, states, fields)
        root_x = root @ x
        gnorm = tracking = dual = rem = bound = [None] * len(states)
        if is_nt:
            (_, g), (_, q), (u0, _), (_, dx) = nt_pairs
            tracking = alg.conservation_residuals(q, g)
            r = spec.alpha * dx
            r -= q
            dual = alg.norms(r)
            if prev is not None:
                # r = g0 - g1 - q0 + alpha D u0 and q0 = (H + eps I) u0, so
                # r + eps u0 is the second-order remainder of the step.
                r += spec.eps * u0
                rem = alg.norms(r)
                bound = [cert["kappa"] * d for d in alg.norms(x - x0)]
            if feasible:
                gnorm = []
                for state, rx in zip(states, root_x):
                    if state.t:
                        v = v + spec.alpha * rx
                    gnorm.append(energy(state.x, v))
        trace.gnorm_error += gnorm
        trace.tracking_residual += tracking
        trace.kkt_primal += alg.norms(root_x)
        trace.kkt_dual += dual
        trace.remainder_norm += rem
        trace.remainder_bound += bound
        prev = states[-1]

    stop_tol, rel_error, wall_ms = config.stop_tol, trace.rel_error, trace.wall_ms

    def reached() -> bool:
        return stop_tol is not None and rel_error[-1] <= stop_tol

    rel_error.append(alg.norm(state.x - target) / denom)
    wall_ms.append(0.0)
    block = []
    # A diverging run overflows on its way to the first non-finite
    # rel_error; the trace reports that as status "diverged".
    with np.errstate(over="ignore", invalid="ignore"):
        record([state])  # x^0 alone, so a run of no rounds copies nothing
        for _ in range(config.iters):
            if reached():
                break
            tic = time.perf_counter_ns()
            state = step(state, family)
            wall = (time.perf_counter_ns() - tic) / 1e6
            rel = alg.norm(state.x - target) / denom
            if not math.isfinite(rel):
                trace.status = "diverged"
                break
            rel_error.append(rel)
            wall_ms.append(wall)
            block.append(state)
            if len(block) == size:
                record(block)
                block = []
        if block:
            record(block)
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


PLOT_STUB = '''#!/usr/bin/env python3
"""Quick look at the traces of the record beside this file: python plot.py"""
import json
from pathlib import Path

import matplotlib.pyplot as plt

here = Path(__file__).parent
record = json.loads((here / "record.json").read_text())
for name, trace in record["traces"].items():
    plt.semilogy(trace["rel_error"], label=name)
plt.xlabel("iteration")
plt.ylabel("relative error")
plt.legend()
plt.tight_layout()
plt.savefig(here / "traces.png", dpi=150)
print("wrote", here / "traces.png")
'''


def write_outputs(record: RunRecord, out_dir) -> dict:
    """record.json + per-algorithm CSVs + a plot stub under out_dir, from
    one formatting pass over the traces; a NaN fails before out_dir is made.

    Each CSV has the fixed column set: iter, comm_rounds (both row t) and
    scalars_sent (t scalars_per_round) as integers, metrics by repr, their
    shortest round-trip decimal form, cut from their column's JSON text,
    whose numbers json.dumps spells as repr does (split on ", "), and
    undefined metrics (null there) as empty cells.
    """
    columns = _columns(record)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    record_path = out_dir / "record.json"
    record_path.write_text(_record_text(record, columns))
    csv_paths = []
    for name, trace in record.traces.items():
        texts, rounds = columns[name], list(map(str, range(len(trace))))
        cells = [rounds, rounds, map(str, trace.scalars_sent)] + [
            texts[c][1:-1].replace("null", "").split(", ") for c in CSV_COLUMNS[3:]]
        lines = [",".join(CSV_COLUMNS)] + [",".join(row) for row in zip(*cells)]
        path = out_dir / f"{name}.csv"
        path.write_text("\n".join(lines) + "\n")
        csv_paths.append(str(path))
    stub = out_dir / "plot.py"
    stub.write_text(PLOT_STUB)
    return {"record": str(record_path), "csv": csv_paths, "plot": str(stub)}


# ---------------------------------------------------------------------------
# Invariant suite over a recorded run.
# ---------------------------------------------------------------------------

def run_checks(record: RunRecord, window: int = 100) -> dict:
    """Re-derive everything the record claims and test the core identities.

    Re-runs the config and compares every record field but the wall-clock
    column, a trace for each configured method included (determinism);
    the other checks read that re-run (see _replay_checks).  A missing
    pinned topology file is read from the record's topology, so a record
    checks from itself alone.  Returns the report document {"passed",
    "checks"}, each check an entry {"passed", "detail"}.
    """
    if window < 0:
        raise ValueError(f"window: must be >= 0, got {window}")
    config = record.config
    net, obj = build_network(config.topology, record.topology), build_objective(config)
    rerun = _run(config, net, obj)
    doc, again = record.to_doc(), rerun.to_doc()
    fields = [key for key in doc if key != "traces" and doc[key] != again[key]]
    columns = [name for name in again["traces"] if name not in doc["traces"]] + [
        f"{name}.{column}" for name, trace in doc["traces"].items()
        for column, values in trace.items()
        if column != "wall_ms" and again["traces"].get(name, {}).get(column) != values]
    checks = {"determinism": {
        "passed": not (fields or columns),
        "detail": {"digest_match": "dataset_digest" not in fields,
                   "trace_match": not columns, "mismatched": fields + columns}},
        **_replay_checks(rerun, net, obj, window)}
    return {"passed": all(c["passed"] for c in checks.values()), "checks": checks}


@np.errstate(over="ignore", invalid="ignore")
def _replay_checks(rerun: RunRecord, net: Network, obj: Objective,
                   window: int) -> dict:
    """Identity and bound checks over up to `window` steps of the re-run.

    nt's conservation, remainder and contraction checks bound its trace's
    tracking_residual, remainder_norm / remainder_bound and gnorm_error,
    which determinism compares with the record's.  Equivalence and the
    stationarity identity replay nt and its primal-dual form, tracker_mean
    gt and textbook gradient tracking (x1 = W x - a y, y1 = W y + g1 - g),
    each over the iterates the trace holds: a diverged run's overflow
    shows as failed checks, not as warnings.  nt and gt start as their
    METHODS entries start the run.  nt's certificate is the re-run's, and
    v* is derived again from obj's g* and net's root.
    """
    checks = {}
    mix, spectra, family = net.mix, net.spectra, obj.family
    specs = {s.name: s for s in rerun.config.algorithms}
    if "nt" in specs:
        spec, trace = specs["nt"], rerun.traces["nt"]
        steps = min(len(trace) - 1, window)
        cons = max(trace.tracking_residual[:steps + 1])
        checks["conservation"] = {"passed": cons < 1e-9, "detail": {"worst": cons}}
        state = METHODS["nt"].init(family, net, spec)
        pds = [alg.pd_init(family, mix, spectra.root, spec.alpha, spec.eps)]
        equiv_worst = 0.0
        for _ in range(steps):
            state = alg.nt_step(state, family)
            pds.append(pd := alg.pd_step(pds[-1], family))
            equiv_worst = max(equiv_worst, float(np.max(np.abs(state.x - pd.x))))
        checks["equivalence"] = {"passed": equiv_worst < 1e-8,
                                 "detail": {"worst": equiv_worst,
                                            "steps": steps}}
        checks["remainder_bound"] = analysis.lemma_remainder_check(
            trace.remainder_norm[1:steps + 1], trace.remainder_bound[1:steps + 1])
        g_star = obj.optimum[1]
        checks["stationarity_identity"] = analysis.stationarity_identity_check(
            pds, family, g_star, analysis.dual_optimum(g_star, spectra.root))
        cert = rerun.certificates["nt"]
        if cert["feasible"]:
            checks["contraction"] = analysis.contraction_check(
                trace.gnorm_error[:steps + 1], cert)

    if "gt" in specs:
        spec = specs["gt"]
        state = METHODS["gt"].init(family, net, spec)
        x, y = state.x, state.grad
        g, worst = y, 0.0
        for _ in range(min(len(rerun.traces["gt"]) - 1, window)):
            state = alg.gt_step(state, family)
            x = mix.w @ x - spec.alpha * y
            g1 = family.grad_stack(x)
            y, g = mix.w @ y + g1 - g, g1
            worst = max(worst, float(np.max(np.abs(state.x - x))))
        checks["tracker_mean"] = {"passed": worst < 1e-9,
                                  "detail": {"worst": worst}}
    return checks
