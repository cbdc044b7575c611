"""Experiment harness: presets, runs, exports, and the invariant checks."""

import dataclasses
import functools
import json
import re

import numpy as np
import pytest

from newtrack import algorithms as alg
from newtrack import analysis, harness
from newtrack.analysis import approximation_error
from newtrack.harness import (CSV_COLUMNS, PRESET_NAMES, AlgorithmSpec,
                              ConvergenceTrace, DataSpec, RunConfig,
                              TopologySpec, export_csv, load_record, preset,
                              run_checks, run_experiment, save_record,
                              topology_sweep, write_outputs)
from newtrack.objectives import LogisticFamily, generate_logistic_data
from newtrack.topology import (build_topology, metropolis_weights,
                               topology_to_doc)


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
    for name in PRESET_NAMES:
        cfg = preset(name)
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
    assert rec.ref_residual <= tiny_config().ref_tol


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
    v_star = analysis.dual_optimum(family, rec.x_star, root)
    state = alg.nt_init(family, spec.alpha, spec.eps)
    v = np.zeros_like(state.x)
    expected = [real(q_mat, rec.x_star, v_star, spec.alpha)(state.x, v)]
    for _ in range(cfg.iters):
        state = alg.nt_step(state, family, mix.disagreement)
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


def test_unknown_algorithm_and_family():
    # An unknown algorithm is rejected when the config is built.
    with pytest.raises(ValueError):
        dataclasses.replace(tiny_config(iters=2),
                            algorithms=(AlgorithmSpec("admm", alpha=0.1),))
    cfg = dataclasses.replace(
        tiny_config(iters=2),
        data=DataSpec(family="cubic", p=3, seed=0))
    with pytest.raises(ValueError):
        run_experiment(cfg)


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
])
def test_config_validation_names_the_field(change, field):
    with pytest.raises(ValueError, match=re.escape(field)):
        dataclasses.replace(tiny_config(), **change)
    doc = json.loads(json.dumps(tiny_config().to_doc()))
    doc.update({k: [dataclasses.asdict(a) for a in v] if k == "algorithms"
                else v for k, v in change.items()})
    with pytest.raises(ValueError, match=re.escape(field)):
        RunConfig.from_doc(doc)


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
    save_record(rec, tmp_path / "record.json")

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
    assert rep.checks["determinism"]["passed"]
    assert rep.checks["equivalence"]["detail"]["steps"] == 38
    assert not rep.passed
    json.dumps(rep.to_doc(), allow_nan=False)


def test_qform_remainder_matches_hessian_reference():
    cfg = dataclasses.replace(preset("fig1"), iters=100)
    rec = run_experiment(cfg)
    mix = metropolis_weights(build_topology("random", 10, tau=0.5, seed=7))
    family = LogisticFamily(generate_logistic_data(n=10, m=12, p=8,
                                                   reg=1e-3, seed=1))
    spec = cfg.algorithms[0]
    state = alg.nt_init(family, spec.alpha, spec.eps)
    worst = 0.0
    for t in range(cfg.iters):
        nxt = alg.nt_step(state, family, mix.disagreement)
        ref = np.linalg.norm(approximation_error(state.x, nxt.x, family,
                                                 mix.w, spec.alpha))
        worst = max(worst, abs(rec.traces["nt"].remainder_norm[t + 1] - ref))
        state = nxt
    assert worst < 1e-11


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
    # The kinds share one objective: one digest and one x*.
    assert {rec.dataset_digest for rec in out.values()} == {direct.dataset_digest}
    for rec in out.values():
        assert np.array_equal(rec.x_star, direct.x_star)


def test_topology_sweep_builds_one_objective(monkeypatch):
    calls = {"generate_logistic_data": 0, "convexity_bounds": 0,
             "centralized_reference": 0}

    def counted(owner, name):
        real = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)

    counted(harness, "generate_logistic_data")
    counted(harness, "convexity_bounds")
    counted(alg, "centralized_reference")
    out = topology_sweep(dataclasses.replace(preset("topo-n10"), iters=0))
    assert set(out) == {"line", "cycle", "complete"}
    assert calls == {"generate_logistic_data": 1, "convexity_bounds": 1,
                     "centralized_reference": 1}


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
    paths = export_csv(rec, tmp_path / "a")
    assert sorted(p.name for p in paths) == ["dlm.csv", "extra.csv",
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

    again = export_csv(rec, tmp_path / "b")
    assert (tmp_path / "b" / "nt.csv").read_text() == nt_csv


def test_csv_deterministic_outside_wall_clock(tmp_path):
    wall = CSV_COLUMNS.index("wall_ms")
    texts = []
    for tag in ("x", "y"):
        rec = run_experiment(tiny_config(iters=10))
        export_csv(rec, tmp_path / tag)
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

    save_record(back, tmp_path / "again.json")
    assert (tmp_path / "again.json").read_text() == \
        (tmp_path / "run" / "record.json").read_text()


def test_trace_doc_is_a_shallow_copy_of_the_fields():
    trace = run_experiment(tiny_config(iters=8)).traces["nt"]
    doc = trace.to_doc()
    assert json.dumps(doc) == json.dumps(dataclasses.asdict(trace))
    doc["rel_error"].append(0.0)
    assert len(doc["rel_error"]) == len(trace) + 1


# ---------------------------------------------------------------------------
# Invariant checks over a record.
# ---------------------------------------------------------------------------

def test_run_checks_pass_on_fresh_records():
    rec = run_experiment(tiny_config(iters=30))
    rep = run_checks(rec, window=30)
    assert rep.passed
    expected = {"determinism", "conservation", "equivalence",
                "remainder_bound", "stationarity_identity", "tracker_mean"}
    assert set(rep.checks) == expected  # no contraction: infeasible cert
    doc = rep.to_doc()
    assert doc["passed"] is True

    feas = run_checks(run_experiment(feasible_config()), window=30)
    assert feas.passed
    assert "contraction" in feas.checks
    assert feas.checks["contraction"]["passed"]


def test_run_checks_pass_with_fewer_samples_than_features():
    # fig5 shape (m = 10 < p = 40): the solve takes the Woodbury path, while
    # the stationarity identity and remainder bound use hess_stack.
    cfg = preset("fig5-n100")
    cfg = dataclasses.replace(cfg, iters=40, algorithms=tuple(
        a for a in cfg.algorithms if a.name == "nt"))
    report = run_checks(run_experiment(cfg), window=40)
    assert report.passed, report.checks
    assert {"equivalence", "stationarity_identity",
            "remainder_bound"} <= set(report.checks)


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
    assert run_checks(rec, window=20).passed
    assert calls == {"build_topology": 1, "generate_logistic_data": 1,
                     "centralized_reference": 1}


def test_objective_solves_x_star_on_first_read(monkeypatch):
    calls = {}
    monkeypatch.setattr(alg, "centralized_reference",
                        counting(calls, "reference", alg.centralized_reference))
    cfg = preset("fig1")
    obj = harness.build_objective(cfg)
    assert calls == {}
    x_star = obj.x_star
    assert obj.ref_residual == float(np.linalg.norm(obj.family.grad_total(x_star)))
    assert obj.x_star is x_star and calls == {"reference": 1}
    # (mu, L) stay eager: data with mu = 0 fails at set-up, not at a read.
    flat = dataclasses.replace(cfg, data=dataclasses.replace(cfg.data, rho=0.0),
                               algorithms=(AlgorithmSpec("gt", alpha=0.1),))
    with pytest.raises(ValueError, match="0 < mu"):
        harness.build_objective(flat)


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
    save_record(rec, tmp_path / "record.json")
    for field, path in (("nt.rel_error", ("traces", "nt", "rel_error", -1)),
                        ("x_star", ("x_star", 0)),
                        ("ref_residual", ("ref_residual",)),
                        ("spectra", ("spectra", "lambda_max")),
                        ("certificates", ("certificates", "nt", "q_min")),
                        ("topology", ("topology", "weights", 0, 0))):
        doc = json.loads((tmp_path / "record.json").read_text())
        bump(doc, *path)
        (tmp_path / "tampered.json").write_text(json.dumps(doc))
        rep = run_checks(load_record(tmp_path / "tampered.json"), window=10)
        det = rep.checks["determinism"]
        assert not rep.passed and not det["passed"], field
        assert det["detail"]["mismatched"] == [field]
        assert det["detail"]["trace_match"] is ("." not in field)
        assert det["detail"]["digest_match"] is True


def test_run_checks_compare_every_trace_column(tmp_path):
    rec = run_experiment(tiny_config(iters=20))
    save_record(rec, tmp_path / "record.json")
    doc = json.loads((tmp_path / "record.json").read_text())
    doc["traces"]["gt"]["kkt_primal"][5] *= 1.0 + 1e-9
    (tmp_path / "record.json").write_text(json.dumps(doc))
    rep = run_checks(load_record(tmp_path / "record.json"), window=10)
    det = rep.checks["determinism"]
    assert not det["passed"]
    assert det["detail"]["mismatched"] == ["gt.kkt_primal"]
    # wall-clock columns are measured, so they alone may differ
    rec.traces["gt"].wall_ms[5] += 1.0
    assert run_checks(rec, window=10).checks["determinism"]["passed"]
