"""Experiment harness: presets, runs, exports, and the invariant checks."""

import copy
import dataclasses
import functools
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from newtrack import algorithms as alg
from newtrack import analysis, cli, harness, topology
from newtrack.harness import (CSV_COLUMNS, PRESET_NAMES, AlgorithmSpec,
                              ConvergenceTrace, DataSpec, RunConfig,
                              TopologySpec, load_record, preset, run_checks,
                              run_experiment, topology_sweep, topology_to_doc,
                              write_outputs)
from newtrack.objectives import LogisticFamily, generate_logistic_data
from newtrack.topology import KINDS, build_topology, metropolis_weights
from oracles import approximation_error, consensus_grads


def tiny_config(iters=200):
    return RunConfig(
        name="tiny",
        topology=TopologySpec(kind="cycle", n=5),
        data=DataSpec(family="quadratic", p=3, seed=5),
        algorithms=(AlgorithmSpec("nt", alpha=1.0, eps=1.5),
                    AlgorithmSpec("gt", alpha=0.05),
                    AlgorithmSpec("extra", alpha=0.1),
                    AlgorithmSpec("dlm", alpha=0.4, eps=0.4)),
        iters=iters,
    )


def feasible_config():
    # eps far above 4 lip^2 / mu + alpha lam_max, so the certificate holds.
    return RunConfig(
        name="feas",
        topology=TopologySpec(kind="complete", n=10),
        data=DataSpec(family="quadratic", p=3, seed=5),
        algorithms=(AlgorithmSpec("nt", alpha=0.1, eps=35.0),),
        iters=60,
    )


# ---------------------------------------------------------------------------
# Presets and config serialization.
# ---------------------------------------------------------------------------

def test_preset_names_cover_scenarios():
    assert PRESET_NAMES == ("fig1", "fig4-n50", "fig5-n100", "topo-n10")


def test_single_method_preset_fields():
    cfg = preset("fig1")
    assert cfg.topology == TopologySpec(kind="random", n=10, tau=0.5, seed=7)
    assert cfg.data == DataSpec(family="logistic", p=8, m=12, rho=1e-3, seed=1)
    assert cfg.algorithms == (AlgorithmSpec("nt", alpha=3.3, eps=3.0),)
    assert cfg.iters == 2000


def test_comparison_preset_step_sizes():
    cfg = preset("fig4-n50")
    assert cfg.topology.n == 50
    assert cfg.data == DataSpec(family="logistic", p=20, m=10, rho=1e-3,
                                seed=1)
    steps = {a.name: (a.alpha, a.eps) for a in cfg.algorithms}
    assert steps == {"gt": (0.16, None), "extra": (0.07, None),
                     "dlm": (0.1, 0.1), "nt": (1.1, 1.2)}

    big = preset("fig5-n100")
    assert (big.topology.n, big.data.p) == (100, 40)
    steps = {a.name: (a.alpha, a.eps) for a in big.algorithms}
    assert steps == {"gt": (0.6, None), "extra": (1.6, None),
                     "dlm": (0.008, 0.001), "nt": (0.08, 0.08)}


def test_sweep_preset_fields():
    cfg = preset("topo-n10")
    assert cfg.topology.kind == "complete"
    assert cfg.topology.n == 10
    assert cfg.algorithms == (AlgorithmSpec("nt", alpha=2.3, eps=2.4),)


def test_unknown_preset():
    with pytest.raises(ValueError):
        preset("fig9")


def test_config_doc_round_trip_all_presets():
    # to_doc is from_doc's input as it stands, and as JSON writes it.
    for name in PRESET_NAMES:
        cfg = preset(name)
        assert RunConfig.from_doc(cfg.to_doc()) == cfg
        doc = json.loads(json.dumps(cfg.to_doc()))
        assert RunConfig.from_doc(doc) == cfg
    tiny = tiny_config()
    assert RunConfig.from_doc(json.loads(json.dumps(tiny.to_doc()))) == tiny


# ---------------------------------------------------------------------------
# Running experiments.
# ---------------------------------------------------------------------------

def test_tiny_run_traces():
    rec = run_experiment(tiny_config())
    assert set(rec.traces) == {"nt", "gt", "extra", "dlm"}
    n, p = 5, 3
    for name, tr in rec.traces.items():
        assert len(tr) == tiny_config().iters + 1
        assert tr.status == "budget"
        assert tr.rel_error[0] == 1.0
        assert tr.comm_rounds == list(range(len(tr)))
        per_round = 2 * n * p if name == "gt" else n * p
        assert tr.scalars_sent == [per_round * t for t in range(len(tr))]
        assert tr.rel_error[-1] < 1e-4
    assert rec.traces["nt"].rel_error[-1] < 1e-12
    assert rec.ref_residual <= 1e-12  # centralized_reference's default tol


class CountingOperator:
    """An exchange operator D that counts its products D @ x."""

    def __init__(self, d):
        self.d, self.products = d, 0

    def __matmul__(self, x):
        self.products += 1
        return self.d @ x


def test_scalars_sent_matches_the_products_each_round_makes():
    # An oracle for the paper's communication cost that reads no
    # declaration: each method starts as the run starts it, its operator is
    # swapped for one that counts its products, and each round's count must
    # be the vectors the trace says that round sent, (n, p) scalars each.
    config = tiny_config(iters=6)
    record = run_experiment(config)
    net, obj = harness.build_network(config.topology), harness.build_objective(config)
    n, p = obj.family.n, obj.family.p
    counts = {}
    for spec in config.algorithms:
        state = harness.METHODS[spec.name].init(obj.family, net, spec)
        state = state._replace(d=CountingOperator(state.d))
        sent = record.traces[spec.name].scalars_sent
        step = getattr(alg, f"{spec.name}_step")
        for t in range(config.iters):
            before = state.d.products
            state = step(state, obj.family)
            assert state.d.products - before == (sent[t + 1] - sent[t]) / (n * p), \
                (spec.name, t)
        counts[spec.name] = state.d.products
    assert counts == {"nt": 6, "gt": 12, "extra": 6, "dlm": 6}


def test_dual_metrics_only_for_curvature_tracked():
    rec = run_experiment(tiny_config(iters=5))
    nt, gt = rec.traces["nt"], rec.traces["gt"]
    assert all(v is not None for v in nt.kkt_dual)
    assert all(v is not None for v in nt.tracking_residual)
    assert all(v is None for v in gt.kkt_dual)
    assert all(v is None for v in gt.tracking_residual)
    assert all(v is None for v in gt.gnorm_error)
    # certificate infeasible at these parameters: metric error undefined
    assert not rec.certificates["nt"]["feasible"]
    assert all(v is None for v in nt.gnorm_error)
    assert set(rec.certificates) == {"nt"}
    # At convergence both stationarity residuals vanish.
    converged = run_experiment(tiny_config()).traces["nt"]
    assert converged.rel_error[-1] < 1e-12
    assert converged.kkt_primal[-1] < 1e-8 and converged.kkt_dual[-1] < 1e-8


def test_determinism_across_runs():
    a = run_experiment(tiny_config(iters=30))
    b = run_experiment(tiny_config(iters=30))
    assert a.dataset_digest == b.dataset_digest
    for name in a.traces:
        assert a.traces[name].rel_error == b.traces[name].rel_error
        assert a.traces[name].kkt_primal == b.traces[name].kkt_primal


def test_feasible_run_populates_metric_error():
    rec = run_experiment(feasible_config())
    cert = rec.certificates["nt"]
    assert cert["feasible"]
    assert cert["contraction"] == pytest.approx(
        1.0 / (1.0 + cert["delta_prime"]), rel=1e-15)
    g = rec.traces["nt"].gnorm_error
    assert all(isinstance(v, float) for v in g)
    assert all(b <= a + 1e-12 for a, b in zip(g, g[1:]))


def test_feasible_run_validates_metric_once(monkeypatch):
    cfg = feasible_config()
    calls = []
    real = analysis.g_norm_metric
    monkeypatch.setattr(analysis, "g_norm_metric",
                        lambda *args: calls.append(args) or real(*args))
    rec = run_experiment(cfg)
    assert len(calls) == 1

    # Oracle: the metric at every recorded iterate, Q re-validated per call.
    spec = cfg.algorithms[0]
    net = harness.build_network(cfg.topology)
    family = harness.build_objective(cfg).family
    mix, root = net.mix, net.spectra.root
    q_mat = analysis.consensus_penalty_matrix(mix.w, spec.alpha, spec.eps)
    v_star = analysis.dual_optimum(consensus_grads(family, rec.x_star), root)
    state = alg.nt_init(family, mix, spec.alpha, spec.eps)
    v = np.zeros_like(state.x)
    expected = [real(q_mat, rec.x_star, v_star, spec.alpha)(state.x, v)]
    for _ in range(cfg.iters):
        state = alg.nt_step(state, family)
        v = v + spec.alpha * (root @ state.x)
        expected.append(real(q_mat, rec.x_star, v_star, spec.alpha)(state.x, v))
    assert rec.traces["nt"].gnorm_error == expected


def test_stop_tol_truncates_run():
    cfg = dataclasses.replace(tiny_config(), stop_tol=1e-6)
    rec = run_experiment(cfg)
    nt = rec.traces["nt"]
    assert len(nt) < cfg.iters + 1
    assert nt.status == "tol"
    assert nt.rel_error[-1] <= 1e-6
    assert all(e > 1e-6 for e in nt.rel_error[:-1])


def test_pinned_topology_file(tmp_path):
    g = build_topology("cycle", 5)
    doc = topology_to_doc(g, metropolis_weights(g))
    path = tmp_path / "net.json"
    path.write_text(json.dumps(doc))
    cfg = dataclasses.replace(
        tiny_config(iters=20),
        topology=TopologySpec(kind="cycle", n=5, file=str(path)))
    rec = run_experiment(cfg)
    assert rec.topology == doc
    direct = run_experiment(tiny_config(iters=20))
    assert rec.traces["nt"].rel_error == direct.traces["nt"].rel_error


def test_pinned_topology_must_match_config_size(tmp_path):
    g = build_topology("cycle", 5)
    path = tmp_path / "net.json"
    path.write_text(json.dumps(topology_to_doc(g, metropolis_weights(g))))
    cfg = dataclasses.replace(
        tiny_config(iters=2),
        topology=TopologySpec(kind="cycle", n=9, file=str(path)))
    with pytest.raises(ValueError,
                       match=re.escape("topology.n: 9 but the pinned file has "
                                       "5 nodes")):
        run_experiment(cfg)


def test_pinned_topology_of_another_size_builds_no_graph(tmp_path, monkeypatch):
    # The sizes are compared first: the file's graph, its connectivity
    # squaring and the eigendecomposition of I - W cost n^3 at its n.
    g = build_topology("line", 60)
    path = tmp_path / "net.json"
    path.write_text(json.dumps(topology_to_doc(g, metropolis_weights(g))))
    calls = []
    monkeypatch.setattr(topology, "_connected", lambda *a: calls.append(a) or True)
    with pytest.raises(ValueError, match=re.escape(
            "topology.n: 10 but the pinned file has 60 nodes")):
        harness.build_network(TopologySpec(kind="line", n=10, file=str(path)))
    assert calls == []


def test_unknown_algorithm_and_family():
    # Unknown algorithms, data families and topology kinds are rejected
    # when the config is built, naming the field and the allowed values.
    with pytest.raises(ValueError):
        dataclasses.replace(tiny_config(iters=2),
                            algorithms=(AlgorithmSpec("admm", alpha=0.1),))
    with pytest.raises(ValueError, match=re.escape(
            "data.family: unknown 'cubic'; expected one of "
            "['logistic', 'quadratic']")):
        DataSpec(family="cubic", p=3, seed=0)
    with pytest.raises(ValueError, match=re.escape(
            "topology.kind: unknown 'ring'; expected one of "
            "['line', 'cycle', 'complete', 'random']")):
        TopologySpec(kind="ring", n=5)
    # The checks and the set-up code read one list each.
    assert list(harness.FAMILIES) == ["logistic", "quadratic"]
    assert KINDS == ("line", "cycle", "complete", "random")


# Rows that only a file can hold: the loader checks the value's type, and
# the constructor takes Python values as given.
DOC_ONLY = [({"topology": {"kind": "cycle", "n": 5, "file": 5}}, "topology.file")]


@pytest.mark.parametrize("change, field", [
    ({"iters": -5}, "iters"),
    ({"algorithms": (AlgorithmSpec("admm", alpha=0.1),)}, "algorithms[0].name"),
    ({"algorithms": (AlgorithmSpec("gt", alpha=0.1),
                     AlgorithmSpec("gt", alpha=0.2))}, "algorithms[1].name"),
    ({"algorithms": (AlgorithmSpec("nt", alpha=1.0),)}, "algorithms[0].eps"),
    ({"algorithms": (AlgorithmSpec("gt", alpha=0.1),
                     AlgorithmSpec("dlm", alpha=0.4))}, "algorithms[1].eps"),
    ({"stop_tol": 0.0}, "stop_tol"),
    ({"stop_tol": -1e-6}, "stop_tol"),
    ({"stop_tol": float("inf")}, "stop_tol"),
    ({"stop_tol": float("nan")}, "stop_tol"),
    ({"iters": -1}, "iters"),
    ({"algorithms": (AlgorithmSpec("gt", alpha=0.0),)}, "algorithms[0].alpha"),
    ({"algorithms": (AlgorithmSpec("extra", alpha=0.1, eps=0.0),)},
     "algorithms[0].eps"),
    ({"algorithms": (AlgorithmSpec("gt", alpha=0.1, eps=float("inf")),)},
     "algorithms[0].eps"),
    ({"algorithms": (AlgorithmSpec("nt", alpha=1.0, eps=1.5),
                     AlgorithmSpec("gt", alpha=0.1),
                     AlgorithmSpec("nt", alpha=2.0, eps=1.0))}, "algorithms[2].name"),
    ({"topology": {"kind": "random", "n": 5, "tau": float("nan"), "seed": 7}},
     "topology.tau"),
    ({"data": {"family": "logistic", "p": 8, "m": 12, "rho": -1e-3}}, "data.rho"),
    ({"data": {"family": "logistic", "p": 8, "m": 12, "rho": float("inf")}},
     "data.rho"),
    ({"topology": {"kind": "ring", "n": 5}}, "topology.kind"),
    ({"topology": {"kind": "cycle", "n": 1}}, "topology.n"),
    ({"topology": {"kind": "cycle", "n": 0}}, "topology.n"),
    ({"topology": {"kind": "random", "n": 5, "seed": 7}}, "topology.tau"),
    ({"topology": {"kind": "random", "n": 5, "tau": 0.0, "seed": 7}},
     "topology.tau"),
    ({"topology": {"kind": "random", "n": 5, "tau": 1.5, "seed": 7}},
     "topology.tau"),
    ({"topology": {"kind": "random", "n": 5, "tau": 0.5}}, "topology.seed"),
    ({"data": {"family": "svm", "p": 3}}, "data.family"),
    ({"data": {"family": "quadratic", "p": 0}}, "data.p"),
    ({"data": {"family": "logistic", "p": 8, "rho": 1e-3}}, "data.m"),
    ({"data": {"family": "logistic", "p": 8, "m": 0, "rho": 1e-3}}, "data.m"),
    ({"data": {"family": "logistic", "p": 0, "m": 12, "rho": 1e-3}}, "data.p"),
    ({"data": {"family": "logistic", "p": 8, "m": 12}}, "data.rho"),
    ({"data": {"family": "logistic", "p": 8, "m": 12, "rho": 0.0}}, "data.rho"),
    ({"data": {"family": "logistic", "p": 8, "m": 12, "rho": float("nan")}},
     "data.rho"),
    ({"topology": {"kind": "random", "n": 10, "tau": 0.01, "seed": 7}},
     "topology.tau"),
    *DOC_ONLY,
    # EXTRA and gt read no eps: one set there would change no number, yet
    # the trace would record it.
    ({"algorithms": (AlgorithmSpec("extra", alpha=0.07, eps=5.0),)},
     "algorithms[0].eps"),
    ({"algorithms": (AlgorithmSpec("nt", alpha=1.0, eps=1.5),
                     AlgorithmSpec("gt", alpha=0.1, eps=1.0))}, "algorithms[1].eps"),
    # A config with no method would solve x* for nothing and write no trace.
    ({"algorithms": ()}, "algorithms"),
    # Quadratic data reads neither m nor rho: set, they would change no
    # number, yet the record would keep them.
    ({"data": {"family": "quadratic", "p": 3, "m": -3}}, "data.m"),
    ({"data": {"family": "quadratic", "p": 3, "rho": -1.0}}, "data.rho"),
    ({"data": {"family": "quadratic", "p": 3, "m": 12, "rho": 1e-3}}, "data.m"),
    # numpy's generators take no negative seed, and would not name the field.
    ({"data": {"family": "quadratic", "p": 3, "seed": -1}}, "data.seed"),
    ({"topology": {"kind": "random", "n": 5, "tau": 0.5, "seed": -1}},
     "topology.seed"),
    ({"topology": {"kind": "cycle", "n": 5, "seed": -1}}, "topology.seed"),
    # A bool or a fraction fails when built in Python as it does in a file,
    # so solve cannot write a record that load_record refuses.
    ({"iters": True}, "iters"),
    ({"iters": 2.5}, "iters"),
    ({"stop_tol": True}, "stop_tol"),
    ({"algorithms": (AlgorithmSpec("nt", alpha=True, eps=3.0),)},
     "algorithms[0].alpha"),
    ({"algorithms": (AlgorithmSpec("nt", alpha=1.0, eps=True),)}, "algorithms[0].eps"),
    ({"topology": {"kind": "random", "n": 10, "tau": True, "seed": 7}}, "topology.tau"),
    ({"topology": {"kind": "cycle", "n": 5, "tau": True}}, "topology.tau"),
    ({"topology": {"kind": "cycle", "n": 5.5}}, "topology.n"),
    ({"topology": {"kind": "cycle", "n": 5, "seed": True}}, "topology.seed"),
    ({"data": {"family": "quadratic", "p": True}}, "data.p"),
    ({"data": {"family": "quadratic", "p": 3, "seed": 1.5}}, "data.seed"),
    ({"data": {"family": "logistic", "p": 8, "m": 12.5, "rho": 1e-3}}, "data.m"),
    ({"data": {"family": "logistic", "p": 8, "m": 12, "rho": True}}, "data.rho"),
    # Whatever the kind reads of it: a record cannot hold a non-finite tau,
    # so solve would run every round, then fail to write naming no field.
    ({"topology": {"kind": "line", "n": 10, "tau": float("nan")}}, "topology.tau"),
    ({"topology": {"kind": "cycle", "n": 5, "tau": float("inf")}}, "topology.tau"),
    ({"topology": {"kind": "complete", "n": 5, "tau": -float("inf")}}, "topology.tau"),
])
def test_config_validation_names_the_field(change, field):
    # Nested changes are spec fields as keywords; the constructor gets the
    # spec, the doc gets the fields (seeds filled in, as a file must).
    specs = {"topology": TopologySpec, "data": DataSpec}
    if (change, field) not in DOC_ONLY:
        with pytest.raises(ValueError, match=re.escape(f"{field}:")):
            dataclasses.replace(tiny_config(), **{
                k: specs[k](**v) if k in specs else v for k, v in change.items()})
    doc = json.loads(json.dumps(tiny_config().to_doc()))
    doc.update({k: [dataclasses.asdict(a) for a in v] if k == "algorithms"
                else {"seed": 0, **v} if k == "data" else v
                for k, v in change.items()})
    with pytest.raises(ValueError, match=re.escape(f"{field}:")):
        RunConfig.from_doc(doc)


@pytest.mark.parametrize("change, message", [
    ({"iters": 2.5}, "iters: not an integer: 2.5"),
    ({"iters": True}, "iters: not an integer: True"),
    ({"algorithms": [{"name": "nt", "alpha": True, "eps": 3.0}]},
     "algorithms[0].alpha: not a number: True"),
    ({"topology": {"kind": "random", "n": 10, "tau": True, "seed": 7}},
     "topology.tau: not a number: True"),
])
def test_constructors_refuse_a_bool_or_fraction_as_the_loader_does(change, message):
    # The same message whether fig1 is changed in Python or in its file.
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        dataclasses.replace(preset("fig1"), **{
            k: tuple(AlgorithmSpec(**a) for a in v) if k == "algorithms"
            else TopologySpec(**v) if k == "topology" else v
            for k, v in change.items()})
    doc = json.loads(json.dumps(preset("fig1").to_doc()))
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        RunConfig.from_doc({**doc, **change})
    # A whole number spelt as a float still loads, read as the int it is.
    assert type(RunConfig.from_doc({**doc, "iters": 2.0}).iters) is int


@pytest.mark.parametrize("field, value", [
    ("ref_tol", 0.0), ("ref_tol", -1e-12), ("ref_tol", float("inf")),
    ("beta", 1.0), ("beta", 0.5), ("beta", float("inf")),
    ("phi", 1.0), ("phi", float("nan")),
    ("stop_tl", 1e-9), ("topology.colour", "red"), ("data.sead", 2),
    ("algorithms[0].step", 0.1),
])
def test_unknown_config_key_is_named(field, value):
    # A key no spec declares fails at load naming its path: a typo such as
    # stop_tl cannot run without its stop, and a doc that still sets a
    # removed field (ref_tol, beta, phi) fails instead of being ignored.
    doc = tiny_config().to_doc()
    owners = {"": doc, "topology": doc["topology"], "data": doc["data"],
              "algorithms[0]": doc["algorithms"][0]}
    owner, _, key = field.rpartition(".")
    owners[owner][key] = value
    with pytest.raises(ValueError, match=f"^{re.escape(field)}: unknown key"):
        RunConfig.from_doc(doc)


def test_a_record_with_removed_config_keys_does_not_load(tmp_path):
    # A record written while configs carried ref_tol, beta and phi holds
    # them under "config"; it fails to load, and its config must be re-run.
    path = tmp_path / "record.json"
    write_outputs(run_experiment(tiny_config(iters=2)), tmp_path)
    doc = json.loads(path.read_text())
    doc["config"].update(ref_tol=1e-12, beta=2.0, phi=2.0)
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=r"^config\.ref_tol: unknown key"):
        load_record(path)


def test_a_random_topology_with_a_pinned_file_needs_no_tau(tmp_path):
    # The file replaces the generator, and with it tau and seed.
    g = build_topology("cycle", 5)
    path = tmp_path / "net.json"
    path.write_text(json.dumps(topology_to_doc(g, metropolis_weights(g))))
    cfg = dataclasses.replace(
        tiny_config(iters=20),
        topology=TopologySpec(kind="random", n=5, file=str(path)))
    direct = run_experiment(tiny_config(iters=20))
    assert run_experiment(cfg).traces["nt"].rel_error == \
        direct.traces["nt"].rel_error


@pytest.mark.parametrize("path", [
    ["name"], ["topology"], ["data"], ["algorithms"], ["iters"],
    ["topology", "kind"], ["topology", "n"], ["data", "family"],
    ["data", "p"], ["data", "seed"], ["algorithms", 0, "name"],
    ["algorithms", 1, "alpha"],
])
def test_missing_config_key_is_named(path):
    # A doc without a required key fails at load with "<path>: missing";
    # the run's name and algorithms[0].name are told apart.
    doc = json.loads(json.dumps(tiny_config().to_doc()))
    del functools.reduce(lambda d, k: d[k], path[:-1], doc)[path[-1]]
    field = "".join(f"[{k}]" if isinstance(k, int) else f".{k}"
                    for k in path).lstrip(".")
    with pytest.raises(ValueError, match=f"^{re.escape(field)}: missing$"):
        RunConfig.from_doc(doc)


@pytest.mark.parametrize("key, value, message", [
    ("topology", 5, "topology: must be an object"),
    ("topology", [], "topology: must be an object"),
    ("data", "x", "data: must be an object"),
    ("algorithms", 3, "algorithms: must be a list"),
    ("algorithms", {"name": "nt"}, "algorithms: must be a list"),
    ("algorithms", [5], "algorithms[0]: must be an object"),
    ("algorithms", [{"name": "nt", "alpha": 1.0, "eps": 1.5}, "gt"],
     "algorithms[1]: must be an object"),
    ("topology", {"kind": "cycle", "n": 10.7}, "topology.n: not an integer: 10.7"),
    ("iters", 2.9, "iters: not an integer: 2.9"),
    ("iters", True, "iters: not an integer: True"),
    ("data", {"family": "quadratic", "p": 3, "seed": 1.5},
     "data.seed: not an integer: 1.5"),
    ("algorithms", [{"name": "nt", "alpha": True, "eps": 1.5}],
     "algorithms[0].alpha: not a number: True"),
    ("algorithms", [{"name": "dlm", "alpha": 0.4, "eps": False}],
     "algorithms[0].eps: not a number: False"),
    ("stop_tol", True, "stop_tol: not a number: True"),
    ("topology", {"kind": "random", "n": 5, "tau": True, "seed": 7},
     "topology.tau: not a number: True"),
    ("data", {"family": "logistic", "p": 3, "m": 4, "rho": True, "seed": 0},
     "data.rho: not a number: True"),
    ("data", {"family": "quadratic", "p": 3, "seed": -1},
     "data.seed: must be >= 0, got -1"),
])
def test_nested_value_that_is_no_object_is_named(key, value, message):
    # A value of the wrong shape or type fails at load naming its field, not
    # with a TypeError from reading keys of a number; an int field takes no
    # fraction and no bool rather than truncating it, and a float field no
    # bool rather than reading true as 1.0.
    doc = json.loads(json.dumps(tiny_config().to_doc()))
    doc[key] = value
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        RunConfig.from_doc(doc)


def test_random_topology_budget_is_checked_at_load():
    # The spec and the generator share one rule with one message: tau, the
    # budget against n - 1, then the seed, each named as the generator's
    # argument, and by the spec under its field, topology.tau or .seed.
    budget = "tau: 0.01 gives an edge budget of 0, which cannot connect 10 nodes (need >= 9)"
    for tau, seed, message in (
            (0.01, 7, budget),
            (0.01, None, budget),
            (1.5, None, "tau: a random topology needs tau in (0, 1], got 1.5"),
            (None, 7, "tau: a random topology needs tau in (0, 1], got None"),
            (0.2, None, "seed: a random topology needs a seed")):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build_topology("random", 10, tau=tau, seed=seed)
        with pytest.raises(ValueError, match=f"^topology\\.{re.escape(message)}$"):
            TopologySpec(kind="random", n=10, tau=tau, seed=seed)
    assert topology.random_budget(10, 0.2, 7) == 9  # n - 1: the fewest that connect
    assert len(build_topology("random", 10, tau=0.2, seed=7).edges) == 9
    TopologySpec(kind="random", n=10, tau=0.2, seed=7)


@pytest.mark.parametrize("key", ["alpha", "eps"])
@pytest.mark.parametrize("text", ["nan", "inf", "-inf", "0", "-1"])
def test_step_sizes_must_be_finite_and_positive(key, text):
    # A bad step size fails at load, naming the field, whether it comes
    # through the constructor or a config file (where it may be a string).
    message = f"algorithms[3].{key}: must be a finite number > 0, got {float(text)!r}"
    algs = list(tiny_config().algorithms)
    algs[3] = dataclasses.replace(algs[3], **{key: float(text)})
    with pytest.raises(ValueError, match=re.escape(message)):
        dataclasses.replace(tiny_config(), algorithms=tuple(algs))
    doc = json.loads(json.dumps(tiny_config().to_doc()))
    doc["algorithms"][3][key] = text
    with pytest.raises(ValueError, match=re.escape(message)):
        RunConfig.from_doc(doc)


def test_stop_tol_from_doc_is_a_number():
    # A config file may spell a number as a string; it loads as the number
    # the constructor takes and the run stops at stop_tol, as with the
    # constructor.  A string that is no number fails at load, naming the field.
    base = dataclasses.replace(preset("fig1"), iters=300, stop_tol=1e-6)
    for field, text in (("stop_tol", "1e-6"), ("topology.tau", "0.5"),
                        ("topology.seed", "7"), ("data.m", "12"),
                        ("data.rho", "1e-3"), ("topology.n", "10"),
                        ("data.p", "8"), ("data.seed", "1"), ("iters", "300"),
                        ("algorithms[0].alpha", "3.3"),
                        ("algorithms[0].eps", "3.0")):
        *parents, key = [int(k) if k.isdigit() else k
                         for k in re.split(r"[.\[\]]+", field) if k]
        doc = json.loads(json.dumps(base.to_doc()))
        functools.reduce(lambda d, k: d[k], parents, doc)[key] = text

        def read(cfg):
            return functools.reduce(lambda o, k: o[k] if isinstance(k, int)
                                    else getattr(o, k), [*parents, key], cfg)
        cfg = RunConfig.from_doc(doc)
        value, expected = read(cfg), read(base)
        assert (value, type(value)) == (expected, type(expected)), field
        assert cfg == base
        assert run_experiment(cfg).traces["nt"].status == "tol"
        functools.reduce(lambda d, k: d[k], parents, doc)[key] = "half"
        message = f"{field}: not a number: 'half'"
        with pytest.raises(ValueError, match=re.escape(message)):
            RunConfig.from_doc(doc)


def test_oscillating_run_is_stalled_not_budget():
    # gt on the published fig1 network and data at a step size where it
    # neither converges nor overflows: it swings around rel_error 160 for
    # the whole budget and never beats its start.
    cfg = dataclasses.replace(preset("fig1"), algorithms=(
        AlgorithmSpec("gt", alpha=50.0),))
    gt = run_experiment(cfg).traces["gt"]
    assert gt.status == "stalled"
    assert len(gt) == cfg.iters + 1
    assert min(gt.rel_error) == gt.rel_error[0] == 1.0
    assert gt.rel_error[-1] > 100.0
    # A run with no rounds has nothing to stall on.
    zero = run_experiment(dataclasses.replace(cfg, iters=0)).traces["gt"]
    assert zero.status == "budget"


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_divergence_stops_and_record_is_strict_json(tmp_path):
    # The published fig1 network and data, with a step size that blows up.
    # The overflow on the way is reported by the status, never as a warning.
    cfg = dataclasses.replace(preset("fig1"), algorithms=(
        AlgorithmSpec("nt", alpha=50.0, eps=0.01),))
    rec = run_experiment(cfg)
    nt = rec.traces["nt"]
    assert nt.status == "diverged"
    assert len(nt) == 39  # iterate 39 is the first with a non-finite error
    assert all(np.isfinite(nt.rel_error))
    write_outputs(rec, tmp_path)

    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    doc = json.loads((tmp_path / "record.json").read_text(),
                     parse_constant=reject)
    assert doc["traces"]["nt"]["status"] == "diverged"
    back = load_record(tmp_path / "record.json")
    assert back.traces["nt"].status == "diverged"
    # The check replays only the recorded iterates, so its report stays
    # finite: it reproduces the run and flags the blow-up.
    rep = run_checks(back)
    assert rep["checks"]["determinism"]["passed"]
    assert rep["checks"]["equivalence"]["detail"]["steps"] == 38
    assert not rep["passed"]
    json.dumps(rep, allow_nan=False)


def test_qform_remainder_matches_hessian_reference():
    cfg = dataclasses.replace(preset("fig1"), iters=100)
    rec = run_experiment(cfg)
    mix = metropolis_weights(build_topology("random", 10, tau=0.5, seed=7))
    family = generate_logistic_data(n=10, m=12, p=8, reg=1e-3, seed=1)
    spec = cfg.algorithms[0]
    state = alg.nt_init(family, mix, spec.alpha, spec.eps)
    worst = 0.0
    for t in range(cfg.iters):
        nxt = alg.nt_step(state, family)
        ref = np.linalg.norm(approximation_error(state.x, nxt.x, family,
                                                 mix.w, spec.alpha))
        worst = max(worst, abs(rec.traces["nt"].remainder_norm[t + 1] - ref))
        state = nxt
    assert worst < 1e-11


def assert_kkt_dual_matches_replays(record, pd_rounds):
    """nt's kkt_dual[t] against ||q_t - alpha (I - W) x_t|| of an nt_step
    replay at every t (1e-12) and ||grad(x_t) + root v_t|| of a pd_step
    replay for t <= pd_rounds (1e-8).  Relative to the larger of the value
    and kkt_dual[0]: every side carries rounding at the start's scale, which
    dominates once the residual has fallen many orders below it."""
    config, kkt = record.config, record.traces["nt"].kkt_dual
    net, obj = harness.build_network(config.topology), harness.build_objective(config)
    family, d, root = obj.family, net.mix.disagreement, net.spectra.root
    spec = next(a for a in config.algorithms if a.name == "nt")
    qf = alg.nt_init(family, net.mix, spec.alpha, spec.eps)
    pd = alg.pd_init(family, net.mix, root, spec.alpha, spec.eps)
    for t, value in enumerate(kkt):
        if t:
            qf = alg.nt_step(qf, family)
        qform = np.linalg.norm(qf.q - spec.alpha * (d @ qf.x))
        assert abs(value - qform) <= 1e-12 * max(qform, kkt[0]), t
        if t <= pd_rounds:
            if t:
                pd = alg.pd_step(pd, family)
            dual = np.linalg.norm(family.grad_stack(pd.x) + root @ pd.v)
            assert abs(value - dual) <= 1e-8 * max(dual, kkt[0]), t


def test_kkt_dual_is_the_qform_residual_on_fig1():
    record = run_experiment(preset("fig1"))
    assert_kkt_dual_matches_replays(record, pd_rounds=100)
    # It falls to the rounding level; a running dual iterate v ended at 2.6e-11.
    assert record.traces["nt"].kkt_dual[-1] < 1e-13


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(n=st.integers(2, 8), tau=st.floats(0.5, 1.0), m=st.integers(1, 8),
       p=st.integers(1, 8), quadratic=st.booleans(), alpha=st.floats(0.05, 1.0),
       eps=st.floats(1.0, 3.0), seed=st.integers(0, 2 ** 16))
def test_kkt_dual_is_the_qform_residual_on_random_instances(n, tau, m, p, quadratic,
                                                            alpha, eps, seed):
    data = DataSpec(family="quadratic", p=p, seed=seed) if quadratic \
        else DataSpec(family="logistic", p=p, m=m, rho=1e-3, seed=seed)
    config = RunConfig(name="prop",
                       topology=TopologySpec(kind="random", n=n, tau=tau, seed=seed),
                       data=data, algorithms=(AlgorithmSpec("nt", alpha, eps),),
                       iters=30)
    assert_kkt_dual_matches_replays(run_experiment(config), pd_rounds=30)


METRIC_COLUMNS = ("rel_error", "gnorm_error", "tracking_residual", "kkt_primal",
                  "kkt_dual", "remainder_norm", "remainder_bound", "comm_rounds",
                  "scalars_sent")


def per_round_trace(config, spec):
    """One method's trace columns but wall_ms, and its status, computed
    round by round on each iterate alone: a plain loop of nt_step (every
    method's step) with root @ x, alg.norm, the remainder identity and the
    conservation defect ||sum q - sum grad|| / (||sum grad|| + 1), which
    conservation_residuals must equal.  The operator D and the vectors a
    round sends are written out here: the Laplacian and 1 for dlm, I - W
    and 2 for gt, I - W and 1 for the others; the start state must carry
    that D."""
    net, obj = harness.build_network(config.topology), harness.build_objective(config)
    family, root, w = obj.family, net.spectra.root, net.mix.w
    n, p = family.n, family.p
    graph = net.graph
    op = np.diag(graph.degrees.astype(float)) - graph.adjacency() \
        if spec.name == "dlm" else np.eye(n) - w
    vectors = 2 if spec.name == "gt" else 1
    x_star = obj.optimum[0]
    target = np.tile(x_star, (n, 1))
    denom = max(alg.norm(target), 1e-300)
    is_nt = spec.name == "nt"
    cert = analysis.rate_certificate(obj.bounds, net.spectra, spec.alpha,
                                     spec.eps) if is_nt else None
    feasible = is_nt and cert["feasible"]
    if feasible:
        energy = analysis.g_norm_metric(
            analysis.consensus_penalty_matrix(w, spec.alpha, spec.eps),
            x_star, analysis.dual_optimum(consensus_grads(family, x_star), root),
            spec.alpha)
        v = np.zeros((n, p))
    cols = {c: [] for c in METRIC_COLUMNS}
    status = "budget"
    state, prev = harness.METHODS[spec.name].init(family, net, spec), None
    assert np.array_equal(state.d, op)
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(config.iters + 1):
            if t:
                if config.stop_tol is not None and \
                        cols["rel_error"][-1] <= config.stop_tol:
                    status = "tol"
                    break
                prev, state = state, alg.nt_step(state, family)
            rel = alg.norm(state.x - target) / denom
            if not math.isfinite(rel):
                status = "diverged"
                break
            root_x = root @ state.x
            dual = rem = bound = gnorm = tracking = None
            if is_nt:
                r = spec.alpha * (op @ state.x) - state.q
                dual = alg.norm(r)
                if prev is not None:
                    rem = alg.norm(r + spec.eps * prev.u)
                    bound = cert["kappa"] * alg.norm(state.x - prev.x)
                if feasible:
                    if t:
                        v = v + spec.alpha * root_x
                    gnorm = energy(state.x, v)
                rhs = state.grad.sum(axis=0)
                tracking = alg.norm(state.q.sum(axis=0) - rhs) / (alg.norm(rhs) + 1.0)
                assert alg.conservation_residuals(state.q[None],
                                                  state.grad[None]) == [tracking]
            for column, value in zip(METRIC_COLUMNS, (
                    rel, gnorm, tracking, alg.norm(root_x), dual, rem, bound,
                    t, t * vectors * n * p)):
                cols[column].append(value)
    if status == "budget" and config.stop_tol is not None \
            and cols["rel_error"][-1] <= config.stop_tol:
        status = "tol"
    elif status == "budget" and len(cols["rel_error"]) > 1 \
            and cols["rel_error"][-1] >= cols["rel_error"][0]:
        status = "stalled"
    return cols, status


@pytest.mark.parametrize("config, expect", [
    # 100 rounds: five full blocks of 18 and a partial one of 10.
    (dataclasses.replace(preset("fig1"), iters=100), {"nt": ("budget", 101)}),
    # 10 nodes, p = 8: blocks of 93 rounds, the last of 14.
    (dataclasses.replace(preset("fig1"), iters=200, algorithms=(
        AlgorithmSpec("gt", alpha=0.16), AlgorithmSpec("extra", alpha=0.07),
        AlgorithmSpec("dlm", alpha=0.1, eps=0.1))),
     {"gt": ("budget", 201), "extra": ("budget", 201), "dlm": ("budget", 201)}),
    # Stops at t = 211, thirteen rounds into the twelfth block.
    (dataclasses.replace(preset("fig1"), iters=400, stop_tol=1e-6),
     {"nt": ("tol", 212)}),
    # Diverges 2 rounds into the third block.
    (dataclasses.replace(preset("fig1"), algorithms=(
        AlgorithmSpec("nt", alpha=50.0, eps=0.01),)), {"nt": ("diverged", 39)}),
    (feasible_config(), {"nt": ("budget", 61)}),
    # n p = 2000: a block holds one nt round, three gt rounds.
    (RunConfig(name="wide", topology=TopologySpec(kind="complete", n=20),
               data=DataSpec(family="quadratic", p=100, seed=3),
               algorithms=(AlgorithmSpec("nt", alpha=1.0, eps=1.5),
                           AlgorithmSpec("gt", alpha=0.05)), iters=7),
     {"nt": ("budget", 8), "gt": ("budget", 8)}),
], ids=["fig1-partial-block", "first-order-trio", "stop-tol-mid-block",
        "diverged-mid-block", "feasible", "one-round-blocks"])
def test_block_metrics_equal_per_round_metrics(config, expect):
    # Every column the driver computes per block of rounds equals the
    # per-iterate computation bit for bit, and status and length are those
    # of the round-by-round run.
    record = run_experiment(config)
    for spec in config.algorithms:
        trace = record.traces[spec.name]
        cols, status = per_round_trace(config, spec)
        assert (trace.status, len(trace)) == (status, len(cols["rel_error"])) \
            == expect[spec.name]
        for column in METRIC_COLUMNS:
            assert getattr(trace, column) == cols[column], (spec.name, column)
        assert len(trace.wall_ms) == len(trace)
        if config.name == "feas":
            assert all(isinstance(g, float) for g in trace.gnorm_error)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(n=st.integers(2, 8), tau=st.floats(0.5, 1.0), m=st.integers(1, 8),
       p=st.integers(1, 8), alpha=st.floats(0.05, 1.0), eps=st.floats(1.0, 3.0),
       seed=st.integers(0, 2 ** 16))
def test_block_metrics_equal_per_round_metrics_on_random_instances(n, tau, m, p,
                                                                    alpha, eps, seed):
    # Random connected graphs, logistic data on both sides of m < p and step
    # sizes where nt is stable: the driver's block columns are the
    # round-by-round ones bit for bit.
    config = RunConfig(name="prop",
                       topology=TopologySpec(kind="random", n=n, tau=tau, seed=seed),
                       data=DataSpec(family="logistic", p=p, m=m, rho=1e-3, seed=seed),
                       algorithms=(AlgorithmSpec("nt", alpha, eps),), iters=30)
    trace = run_experiment(config).traces["nt"]
    cols, status = per_round_trace(config, config.algorithms[0])
    assert (trace.status, len(trace)) == (status, len(cols["rel_error"]))
    for column in ("rel_error", "kkt_primal", "kkt_dual", "remainder_norm",
                   "remainder_bound", "tracking_residual"):
        assert getattr(trace, column) == cols[column], column


def test_first_below():
    tr = ConvergenceTrace(algorithm="nt", alpha=1.0, eps=1.0,
                          rel_error=[1.0, 0.5, 0.2])
    assert tr.first_below(0.5) == 1
    assert tr.first_below(1.0) == 0
    assert tr.first_below(0.1) is None


def test_topology_sweep_matches_direct_run():
    cfg = tiny_config(iters=25)
    out = topology_sweep(cfg, kinds=("line", "complete"))
    assert set(out) == {"line", "complete"}
    direct = run_experiment(dataclasses.replace(
        cfg, name="tiny-line",
        topology=TopologySpec(kind="line", n=5)))
    assert out["line"].config.name == "tiny-line"
    assert out["line"].traces["nt"].rel_error == direct.traces["nt"].rel_error
    # Every trace column but wall_ms of the second kind is that of a run of
    # its own.
    alone = run_experiment(dataclasses.replace(
        cfg, name="tiny-complete", topology=TopologySpec(kind="complete", n=5)))
    for name, trace in out["complete"].traces.items():
        doc, expected = trace.to_doc(), alone.traces[name].to_doc()
        del doc["wall_ms"], expected["wall_ms"]
        assert doc == expected, name
    # The kinds share one objective: one digest and one x*.
    assert {rec.dataset_digest for rec in out.values()} == {direct.dataset_digest}
    for rec in out.values():
        assert np.array_equal(rec.x_star, direct.x_star)


def test_topology_sweep_builds_one_objective(monkeypatch):
    calls = {"generate_logistic_data": 0, "convexity_bounds": 0,
             "centralized_reference": 0, "nt_init": 0}

    def counted(owner, name):
        real = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)

    counted(harness, "generate_logistic_data")
    counted(harness, "convexity_bounds")
    counted(alg, "centralized_reference")
    counted(alg, "nt_init")
    out = topology_sweep(dataclasses.replace(preset("topo-n10"), iters=0))
    assert set(out) == {"line", "cycle", "complete"}
    # Each kind's run builds its own t = 0 state: one nt start per kind.
    assert calls == {"generate_logistic_data": 1, "convexity_bounds": 1,
                     "centralized_reference": 1, "nt_init": 3}


def test_topology_sweep_random_needs_tau():
    with pytest.raises(ValueError):
        topology_sweep(tiny_config(iters=2), kinds=("random",))
    # Kinds must be distinct and at least one.
    for kinds, message in ((("line", "cycle", "line"), "'line' appears twice"),
                           ((), "kinds: empty")):
        with pytest.raises(ValueError, match=re.escape(message)):
            topology_sweep(tiny_config(iters=2), kinds=kinds)


# ---------------------------------------------------------------------------
# Exports.
# ---------------------------------------------------------------------------

def test_csv_format_and_reexport(tmp_path):
    rec = run_experiment(tiny_config(iters=10))
    paths = write_outputs(rec, tmp_path / "a")["csv"]
    assert sorted(Path(p).name for p in paths) == ["dlm.csv", "extra.csv",
                                                   "gt.csv", "nt.csv"]
    nt_csv = (tmp_path / "a" / "nt.csv").read_text()
    lines = nt_csv.strip().split("\n")
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 12  # header + 11 rows
    row0 = lines[1].split(",")
    assert row0[0] == "0"
    assert row0[CSV_COLUMNS.index("rel_error")] == "1.0"
    # infeasible certificate: gnorm_error column is empty for nt
    assert row0[CSV_COLUMNS.index("gnorm_error")] == ""
    gt_row = (tmp_path / "a" / "gt.csv").read_text().strip().split("\n")[2]
    fields = gt_row.split(",")
    assert fields[CSV_COLUMNS.index("tracking_residual")] == ""
    assert fields[CSV_COLUMNS.index("kkt_dual")] == ""

    write_outputs(rec, tmp_path / "b")
    assert (tmp_path / "b" / "nt.csv").read_text() == nt_csv


def test_csv_deterministic_outside_wall_clock(tmp_path):
    wall = CSV_COLUMNS.index("wall_ms")
    texts = []
    for tag in ("x", "y"):
        rec = run_experiment(tiny_config(iters=10))
        write_outputs(rec, tmp_path / tag)
        rows = (tmp_path / tag / "nt.csv").read_text().strip().split("\n")
        scrubbed = []
        for row in rows[1:]:
            fields = row.split(",")
            fields[wall] = ""
            scrubbed.append(",".join(fields))
        texts.append("\n".join(scrubbed))
    assert texts[0] == texts[1]


def test_write_outputs_and_record_round_trip(tmp_path):
    rec = run_experiment(tiny_config(iters=8))
    out = write_outputs(rec, tmp_path / "run")
    assert (tmp_path / "run" / "record.json").exists()
    assert (tmp_path / "run" / "plot.py").exists()
    assert len(out["csv"]) == 4

    back = load_record(out["record"])
    assert back.config == rec.config
    assert back.dataset_digest == rec.dataset_digest
    assert np.allclose(back.x_star, rec.x_star, atol=0.0)
    for name in rec.traces:
        assert back.traces[name].rel_error == rec.traces[name].rel_error
        assert back.traces[name].wall_ms == rec.traces[name].wall_ms

    write_outputs(back, tmp_path / "again")
    assert (tmp_path / "again" / "record.json").read_text() == \
        (tmp_path / "run" / "record.json").read_text()


def test_trace_doc_is_a_shallow_copy_of_the_fields():
    trace = run_experiment(tiny_config(iters=8)).traces["nt"]
    doc = trace.to_doc()
    assert json.dumps(doc) == json.dumps(dataclasses.asdict(trace))
    doc["rel_error"].append(0.0)
    assert len(doc["rel_error"]) == len(trace) + 1


@functools.cache
def sample_records() -> tuple:
    """Each preset at 3 iterations, the topo-n10 sweep, a run that stops at
    its tolerance and one that diverges.  Callers must not change them."""
    records = [run_experiment(dataclasses.replace(preset(name), iters=3))
               for name in PRESET_NAMES]
    records += topology_sweep(preset("topo-n10")).values()
    records.append(run_experiment(dataclasses.replace(tiny_config(), stop_tol=1e-6)))
    records.append(run_experiment(dataclasses.replace(preset("fig1"), algorithms=(
        AlgorithmSpec("nt", alpha=50.0, eps=0.01),))))
    return tuple(records)


def test_record_doc_round_trip():
    # Every record reads back to the doc it was written as.
    records = sample_records()
    assert {"tol", "diverged"} <= {t.status for r in records for t in r.traces.values()}
    for record in records:
        doc = record.to_doc()
        assert harness.RunRecord.from_doc(json.loads(json.dumps(doc))).to_doc() == doc


def test_load_record_decodes_the_pinned_topology_once(monkeypatch, tmp_path):
    # The record's topology is read by the loader's rules with the record,
    # and its network is built from that document, not decoded again.
    write_outputs(run_experiment(tiny_config(iters=3)), tmp_path)
    kinds = []
    real = harness._decode
    monkeypatch.setattr(harness, "_decode",
                        lambda kind, *args: kinds.append(kind) or real(kind, *args))
    load_record(tmp_path / "record.json")
    assert kinds.count(harness.PinnedTopology) == 1


def csv_by_repr(trace) -> str:
    """A trace's CSV as it was written row by row: counts and metrics by
    repr, an undefined metric as an empty cell."""
    columns = [range(len(trace))] + [getattr(trace, c) for c in CSV_COLUMNS[1:]]
    lines = [",".join(CSV_COLUMNS)]
    lines += [",".join("" if v is None else repr(v) for v in row)
              for row in zip(*columns)]
    return "\n".join(lines) + "\n"


def test_outputs_are_the_docs_bytes(tmp_path):
    # The one formatting pass writes record.json as json.dumps of the doc
    # and each CSV as the row-by-row repr formula, byte for byte.
    for i, record in enumerate(sample_records()):
        out = tmp_path / str(i)
        files = write_outputs(record, out)
        expected = json.dumps(record.to_doc(), allow_nan=False) + "\n"
        assert (out / "record.json").read_text() == expected
        assert len(files["csv"]) == len(record.traces)
        for name, trace in record.traces.items():
            assert (out / f"{name}.csv").read_text() == csv_by_repr(trace), name


@pytest.mark.parametrize("column", ["rel_error", "kkt_dual", "wall_ms"])
def test_a_nan_in_a_trace_fails_before_any_record_is_written(tmp_path, column):
    rec = run_experiment(tiny_config(iters=4))
    getattr(rec.traces["nt"], column)[2] = math.nan
    message = rf"^traces\.nt\.{column}: not a finite number$"
    with pytest.raises(ValueError, match=message):
        write_outputs(rec, tmp_path / "run")
    assert not (tmp_path / "run").exists()  # nor an empty directory


@functools.cache
def valid_docs() -> dict:
    """A config doc and a record doc, each with the paths of its maps
    (whose keys are free, each entry of one schema)."""
    record = json.loads(json.dumps(run_experiment(tiny_config(iters=3)).to_doc()))
    return {"config": (json.loads(json.dumps(preset("fig1").to_doc())), ()),
            "record": (record, [("traces",), ("certificates",)])}


def schema_keys(doc, path=()):
    """Path of each key of doc, walking objects and lists of objects."""
    for key, value in doc.items():
        at = (*path, key)
        yield at
        for i, entry in enumerate(value if isinstance(value, list) else [value]):
            if isinstance(entry, dict):
                yield from schema_keys(entry, (*at, i) if isinstance(value, list) else at)


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_malformed_doc_fails_at_load_naming_the_path(data):
    # Deleting a key whose value is not null, adding a key to an object, or
    # giving a key a value of another JSON kind fails at load with a
    # ValueError whose message starts with that key's path, never with a
    # KeyError, TypeError or AttributeError from the reader.
    kind = data.draw(st.sampled_from(["config", "record"]))
    valid, maps = valid_docs()[kind]
    doc = copy.deepcopy(valid)

    def at(path):
        return functools.reduce(lambda d, k: d[k], path, doc)
    keys = list(schema_keys(doc))
    op = data.draw(st.sampled_from(["delete", "add", "retype"]))
    if op == "delete":  # a map's entry, or an optional field, may go
        path = data.draw(st.sampled_from(
            [p for p in keys if at(p) is not None and p[:-1] not in maps]))
        del at(path[:-1])[path[-1]]
    elif op == "add":
        owner = data.draw(st.sampled_from(
            [()] + [p for p in keys if isinstance(at(p), dict)]))
        path = (*owner, "bogus")
        at(owner)["bogus"] = 1
    else:
        path = data.draw(st.sampled_from(keys))
        value = at(path)  # a null may be an optional string: "abc" would fit
        at(path[:-1])[path[-1]] = data.draw(st.sampled_from(
            [v for v in ({}, [], "abc")[:2 if value is None else 3]
             if type(v) is not type(value)]))
    load = RunConfig.from_doc if kind == "config" else harness.RunRecord.from_doc
    with pytest.raises(ValueError) as err:
        load(doc)
    # A range check names its field by its path in the doc, in a record too.
    name = "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path)[1:]
    assert re.match(f"{re.escape(name)}[.:[]", str(err.value)), (op, str(err.value))


# ---------------------------------------------------------------------------
# Invariant checks over a record.
# ---------------------------------------------------------------------------

def test_run_checks_pass_on_fresh_records():
    rec = run_experiment(tiny_config(iters=30))
    rep = run_checks(rec, window=30)
    expected = {"determinism", "conservation", "equivalence",
                "remainder_bound", "stationarity_identity", "tracker_mean"}
    assert set(rep["checks"]) == expected  # no contraction: infeasible cert
    assert rep["passed"] is True

    feas = run_checks(run_experiment(feasible_config()), window=30)
    assert feas["passed"]
    assert "contraction" in feas["checks"]
    assert feas["checks"]["contraction"]["passed"]


@pytest.mark.parametrize("config, names", [
    (tiny_config(30), ["determinism", "conservation", "equivalence",
                       "remainder_bound", "stationarity_identity",
                       "tracker_mean"]),
    (feasible_config(), ["determinism", "conservation", "equivalence",
                         "remainder_bound", "stationarity_identity",
                         "contraction"]),
], ids=["tiny", "feasible"])
def test_check_report_shape(capsys, tmp_path, config, names):
    # The document `check` prints: its top-level keys, its checks in order,
    # and each check's detail keys in order.
    details = {"determinism": ["digest_match", "trace_match", "mismatched"],
               "conservation": ["worst"],
               "equivalence": ["worst", "steps"],
               "remainder_bound": ["violations", "worst"],
               "stationarity_identity": ["worst"],
               "contraction": ["violations", "worst_ratio", "bound"],
               "tracker_mean": ["worst"]}
    write_outputs(run_experiment(config), tmp_path)
    assert cli.main(["check", "--record", str(tmp_path / "record.json"),
                     "--window", "30"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert list(doc) == ["passed", "checks"]
    assert list(doc["checks"]) == names
    for name, check in doc["checks"].items():
        assert list(check) == ["passed", "detail"], name
        assert list(check["detail"]) == details[name], name


def test_run_checks_pass_with_fewer_samples_than_features():
    # fig5 shape (m = 10 < p = 40): the solve takes the Woodbury path, while
    # the stationarity identity and remainder bound use hess_blocks.
    cfg = preset("fig5-n100")
    cfg = dataclasses.replace(cfg, iters=40, algorithms=tuple(
        a for a in cfg.algorithms if a.name == "nt"))
    report = run_checks(run_experiment(cfg), window=40)
    assert report["passed"], report["checks"]
    assert {"equivalence", "stationarity_identity",
            "remainder_bound"} <= set(report["checks"])


@pytest.mark.parametrize("name, operator, check", [
    ("nt", "disagreement", "equivalence"),
    ("gt", "disagreement", "tracker_mean"),
])
def test_replay_checks_replay_the_methods_as_wired(monkeypatch, name, operator, check):
    # A METHODS entry whose start state carries an operator off by 5% runs
    # a method the paper does not define.  The replay starts as METHODS
    # starts the run, so the re-run and the record agree (determinism
    # passes), and the replay fails the identity that the true operator keeps.
    method = harness.METHODS[name]
    monkeypatch.setitem(harness.METHODS, name, method._replace(
        init=lambda fam, net, spec: method.init(fam, net, spec)._replace(
            d=1.05 * getattr(net.mix, operator))))
    config = preset("fig4-n50")
    record = run_experiment(dataclasses.replace(config, iters=60, algorithms=tuple(
        a for a in config.algorithms if a.name == name)))
    report = run_checks(record, window=50)
    assert report["checks"]["determinism"]["passed"]
    assert [c for c, entry in report["checks"].items() if not entry["passed"]] == [check]


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(n=st.integers(2, 8), tau=st.floats(0.5, 1.0), m=st.integers(1, 8),
       p=st.integers(1, 8), quadratic=st.booleans(), nt_alpha=st.floats(0.05, 1.0),
       nt_eps=st.floats(1.0, 3.0), gt_alpha=st.floats(0.01, 0.1),
       extra_alpha=st.floats(0.01, 0.1), dlm_alpha=st.floats(0.01, 0.1),
       dlm_eps=st.floats(1.0, 3.0), seed=st.integers(0, 2 ** 16))
def test_run_checks_pass_on_random_instances(n, tau, m, p, quadratic, nt_alpha, nt_eps,
                                             gt_alpha, extra_alpha, dlm_alpha, dlm_eps,
                                             seed):
    # Every method on a random graph, logistic data on either side of
    # m < p or quadratic data, and random steps: every check passes.
    data = DataSpec(family="quadratic", p=p, seed=seed) if quadratic \
        else DataSpec(family="logistic", p=p, m=m, rho=1e-3, seed=seed)
    config = RunConfig(name="prop",
                       topology=TopologySpec(kind="random", n=n, tau=tau, seed=seed),
                       data=data,
                       algorithms=(AlgorithmSpec("nt", nt_alpha, nt_eps),
                                   AlgorithmSpec("gt", gt_alpha),
                                   AlgorithmSpec("extra", extra_alpha),
                                   AlgorithmSpec("dlm", dlm_alpha, dlm_eps)),
                       iters=30)
    report = run_checks(run_experiment(config), window=20)
    assert report["passed"], report["checks"]


def test_remainder_worst_skips_rounding_level_steps():
    # tiny's nt reaches x* within 100 rounds; its late steps' kappa ||dx||
    # sink to 1e-16, where ||e|| / (kappa ||dx||) is a ratio of rounding
    # errors (0.79 at step 98).  `worst` reads only the steps above the
    # floor 1e-14 max(first bound, 1); violations count every step.
    report = run_checks(run_experiment(tiny_config()), window=100)
    rem = report["checks"]["remainder_bound"]
    assert rem["passed"] and rem["detail"]["violations"] == 0
    assert rem["detail"]["worst"] <= 0.2


def counting(calls, name, fn):
    def wrapper(*args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        return fn(*args, **kwargs)
    return wrapper


def test_run_checks_build_the_problem_once(monkeypatch):
    rec = run_experiment(dataclasses.replace(preset("fig1"), iters=20))
    calls = {}
    for owner, name in ((harness, "build_topology"),
                        (harness, "generate_logistic_data"),
                        (alg, "centralized_reference")):
        monkeypatch.setattr(owner, name,
                            counting(calls, name, getattr(owner, name)))
    assert run_checks(rec, window=20)["passed"]
    assert calls == {"build_topology": 1, "generate_logistic_data": 1,
                     "centralized_reference": 1}


@pytest.mark.parametrize("column, check, bad", [
    ("tracking_residual", "conservation", lambda trace, k: 1e-6),
    ("remainder_norm", "remainder_bound",
     lambda trace, k: 2.0 * trace.remainder_bound[k] + 1.0),
    ("gnorm_error", "contraction", lambda trace, k: 2.0 * trace.gnorm_error[k - 1] + 1.0),
], ids=["conservation", "remainder_bound", "contraction"])
def test_replay_checks_bound_the_reruns_columns(monkeypatch, column, check, bad):
    # conservation, remainder_bound and contraction read the re-run's nt
    # columns up to the window: a value past its bound at step k fails the
    # check once the window reaches k, and determinism, as the record holds
    # the true value; every other check still passes.
    rec = run_experiment(feasible_config())
    k, real = 10, harness._run

    def corrupted(*args):
        rerun = real(*args)
        trace = rerun.traces["nt"]
        getattr(trace, column)[k] = bad(trace, k)
        return rerun

    monkeypatch.setattr(harness, "_run", corrupted)
    report = run_checks(rec, window=k)
    assert [name for name, c in report["checks"].items() if not c["passed"]] == \
        ["determinism", check]
    assert report["checks"]["determinism"]["detail"]["mismatched"] == [f"nt.{column}"]
    assert report["checks"][check]["detail"].get("violations") in (None, 1)
    assert run_checks(rec, window=k - 1)["checks"][check]["passed"]


def test_replay_checks_evaluate_each_iterate_once(monkeypatch):
    # grad_curvature runs once per iterate: 21 for the re-run's nt, 13 for
    # the replayed nt and 13 for its primal-dual form, whose states carry
    # it, so the stationarity check, which built its own for x^0..x^12,
    # calls none and builds one Hessian per step from the states' weights
    # (the remainder check reads the re-run's columns).  The reference
    # solve sums the node oracles: 6 points (5 full Newton steps, one
    # Hessian each).  Its last point's node gradients are g*, which
    # ref_residual, v* and the identity read, so no oracle runs at x*
    # again and nothing calls grad_stack.  Nothing calls hess_stack, and
    # the re-run's nt steps call no hess_blocks (fig1's band is one
    # product with the cached pairs).
    rec = run_experiment(dataclasses.replace(preset("fig1"), iters=20))
    calls = {}
    for name in ("grad_stack", "grad_curvature", "hess_stack", "hess_blocks"):
        monkeypatch.setattr(LogisticFamily, name,
                            counting(calls, name, getattr(LogisticFamily, name)))
    report = run_checks(rec, window=12)
    assert report["passed"]
    assert calls == {"grad_curvature": 21 + 13 + 13 + 6, "hess_blocks": 12 + 5}


def test_run_checks_read_the_certificate_of_the_rerun(monkeypatch):
    # On a feasible record the re-run derives nt's certificate and v* for
    # its trace; the replayed checks read the re-run's certificate and
    # derive v* again (microseconds); only the re-run's metric builds Q.
    rec = run_experiment(feasible_config())
    calls = {}
    for name in ("rate_certificate", "dual_optimum", "consensus_penalty_matrix",
                 "g_norm_metric"):
        monkeypatch.setattr(analysis, name,
                            counting(calls, name, getattr(analysis, name)))
    report = run_checks(rec, window=30)
    assert report["passed"] and "contraction" in report["checks"]
    assert calls == {"rate_certificate": 1, "dual_optimum": 2,
                     "consensus_penalty_matrix": 1, "g_norm_metric": 1}


def test_objective_solves_x_star_on_first_read(monkeypatch):
    calls = {}
    monkeypatch.setattr(alg, "centralized_reference",
                        counting(calls, "reference", alg.centralized_reference))
    # (mu, L) stay eager: bounded at set-up, not at a read.  (Data with
    # mu = 0, rho = 0, no longer loads: see the config validation test.)
    monkeypatch.setattr(harness, "convexity_bounds",
                        counting(calls, "bounds", harness.convexity_bounds))
    cfg = preset("fig1")
    obj = harness.build_objective(cfg)
    assert calls == {"bounds": 1}
    optimum = obj.optimum
    x_star, g_star = optimum
    # g* is the node gradients at x*, each node's oracle at the shared point.
    nodes = alg.total_grad_curvature(obj.family, x_star)[1]
    assert g_star.tobytes() == nodes.tobytes()
    assert obj.optimum is optimum and calls == {"bounds": 1, "reference": 1}


def test_run_decomposes_the_mixing_matrix_once(monkeypatch):
    cfg = dataclasses.replace(preset("fig1"), iters=5)
    n = cfg.topology.n
    shapes = []

    def by_shape(fn):
        def wrapper(a, *args, **kwargs):
            shapes.append(a.shape)
            return fn(a, *args, **kwargs)
        return wrapper

    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, by_shape(getattr(np.linalg, name)))
    rec = run_experiment(cfg)
    assert rec.certificates["nt"]["feasible"] is False  # no Q to validate
    assert shapes.count((n, n)) == 1


def test_run_checks_catch_tampered_trace(tmp_path):
    # Every saved field but the wall-clock column is compared to the re-run.
    def bump(doc, *path):
        *parents, key = path
        functools.reduce(lambda d, k: d[k], parents, doc)[key] += 1e-9

    rec = run_experiment(tiny_config(iters=20))
    write_outputs(rec, tmp_path)
    for field, path in (("nt.rel_error", ("traces", "nt", "rel_error", -1)),
                        ("x_star", ("x_star", 0)),
                        ("ref_residual", ("ref_residual",)),
                        ("spectra", ("spectra", "lambda_max")),
                        ("certificates", ("certificates", "nt", "q_min")),
                        ("topology", ("topology", "weights", 0, 1))):
        doc = json.loads((tmp_path / "record.json").read_text())
        bump(doc, *path)
        if field == "topology":  # along the edge (0, 1): W stays a mixing matrix
            w = doc["topology"]["weights"]
            w[1][0] = w[0][1]
            w[0][0] -= 1e-9
            w[1][1] -= 1e-9
        (tmp_path / "tampered.json").write_text(json.dumps(doc))
        rep = run_checks(load_record(tmp_path / "tampered.json"), window=10)
        det = rep["checks"]["determinism"]
        assert not rep["passed"] and not det["passed"], field
        assert det["detail"]["mismatched"] == [field]
        assert det["detail"]["trace_match"] is ("." not in field)
        assert det["detail"]["digest_match"] is True
    # A weight that a pinned file could not hold fails at load instead.
    doc = json.loads((tmp_path / "record.json").read_text())
    bump(doc, "topology", "weights", 0, 0)
    (tmp_path / "tampered.json").write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="^topology.mixing matrix rows must sum to 1$"):
        load_record(tmp_path / "tampered.json")


def test_run_checks_compare_every_trace_column(tmp_path):
    rec = run_experiment(tiny_config(iters=20))
    write_outputs(rec, tmp_path)
    doc = json.loads((tmp_path / "record.json").read_text())
    doc["traces"]["gt"]["kkt_primal"][5] *= 1.0 + 1e-9
    (tmp_path / "record.json").write_text(json.dumps(doc))
    rep = run_checks(load_record(tmp_path / "record.json"), window=10)
    det = rep["checks"]["determinism"]
    assert not det["passed"]
    assert det["detail"]["mismatched"] == ["gt.kkt_primal"]
    # wall-clock columns are measured, so they alone may differ
    rec.traces["gt"].wall_ms[5] += 1.0
    assert run_checks(rec, window=10)["checks"]["determinism"]["passed"]
