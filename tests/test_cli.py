"""Command-line interface: JSON outputs, exit codes, error reporting.

Everything runs in-process through main(argv) so stdout/stderr can be
captured cheaply; one subprocess smoke test covers the real entry point.
"""

import dataclasses
import functools
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import newtrack
from newtrack import algorithms
from newtrack.cli import main
from newtrack.harness import (AlgorithmSpec, DataSpec, RunConfig,
                              TopologySpec, load_record, preset, run_experiment)


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def module_env() -> dict:
    """Environment in which `python -m newtrack.cli` imports the package
    under test, installed or not."""
    paths = [str(Path(newtrack.__file__).resolve().parents[1]),
             os.environ.get("PYTHONPATH")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}


def tiny_config_doc(iters=30):
    cfg = RunConfig(
        name="tiny",
        topology=TopologySpec(kind="cycle", n=5),
        data=DataSpec(family="quadratic", p=3, seed=5),
        algorithms=(AlgorithmSpec("nt", alpha=1.0, eps=1.5),
                    AlgorithmSpec("gt", alpha=0.05)),
        iters=iters,
    )
    return cfg.to_doc()


# ---------------------------------------------------------------------------
# spectra
# ---------------------------------------------------------------------------

def test_spectra_complete(capsys, tmp_path):
    out_file = tmp_path / "spec.json"
    rc, out, _ = run_cli(capsys, "spectra", "--kind", "complete",
                         "--n", "10", "--out", str(out_file))
    assert rc == 0
    doc = json.loads(out)
    assert doc["kind"] == "complete"
    assert doc["n"] == 10
    assert len(doc["edges"]) == 45
    assert doc["lambda_max"] == pytest.approx(1.0, abs=1e-12)
    assert doc["lambda_min_nz"] == pytest.approx(1.0, abs=1e-12)
    assert json.loads(out_file.read_text()) == doc


def test_spectra_random_requires_tau(capsys):
    rc, _, err = run_cli(capsys, "spectra", "--kind", "random", "--n", "10",
                         "--seed-topology", "7")
    assert rc == 1
    doc = json.loads(err)
    assert doc["error"] == "ValueError"
    assert "tau" in doc["message"]


def test_spectra_unknown_kind(capsys):
    rc, _, err = run_cli(capsys, "spectra", "--kind", "star", "--n", "5")
    assert rc == 1
    assert json.loads(err)["error"] == "ValueError"


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def test_solve_preset_with_overrides(capsys, tmp_path):
    out_dir = tmp_path / "run"
    rc, out, _ = run_cli(capsys, "solve", "--preset", "fig1",
                         "--iters", "40", "--out", str(out_dir))
    assert rc == 0
    doc = json.loads(out)
    assert doc["name"] == "fig1"
    assert doc["iterations"] == {"nt": 40}
    assert doc["dataset_digest"].startswith("sha256:")
    assert doc["ref_residual"] <= 1e-12
    assert 0 < doc["final_rel_error"]["nt"] < 1.0
    assert set(doc["spectra"]) == {"lambda_max", "lambda_min_nz"}
    assert (out_dir / "record.json").exists()
    assert (out_dir / "nt.csv").exists()
    assert (out_dir / "plot.py").exists()


def test_plot_stub_draws_only_the_methods_of_its_record(capsys, tmp_path):
    # A fig1 run written over a fig4-n50 run's directory leaves gt.csv,
    # extra.csv and dlm.csv behind; the stub draws fig1's nt alone.
    # matplotlib is not a dependency: a stand-in pyplot logs each label.
    out_dir, fake = tmp_path / "run", tmp_path / "fake" / "matplotlib"
    fake.mkdir(parents=True)
    (fake / "__init__.py").write_text("")
    (fake / "pyplot.py").write_text(
        "import os\n"
        "def semilogy(*args, label):\n"
        "    with open(os.environ['PLOT_LOG'], 'a') as fh:\n"
        "        fh.write(label + '\\n')\n"
        "def __getattr__(name):\n"
        "    return lambda *args, **kwargs: None\n")
    for name in ("fig4-n50", "fig1"):
        assert run_cli(capsys, "solve", "--preset", name, "--iters", "3",
                       "--out", str(out_dir))[0] == 0
    assert (out_dir / "gt.csv").exists()
    log = tmp_path / "labels.txt"
    env = {**os.environ, "PYTHONPATH": str(fake.parent), "PLOT_LOG": str(log)}
    proc = subprocess.run([sys.executable, "plot.py"], cwd=out_dir,
                          capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    assert log.read_text() == "nt\n"


def test_solve_config_file(capsys, tmp_path):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(tiny_config_doc()))
    rc, out, _ = run_cli(capsys, "solve", "--config", str(path))
    assert rc == 0
    doc = json.loads(out)
    assert doc["name"] == "tiny"
    assert doc["iterations"] == {"nt": 30, "gt": 30}
    assert doc["status"] == {"nt": "budget", "gt": "budget"}
    assert not doc["certificates"]["nt"]["feasible"]


@pytest.mark.parametrize("change, field", [
    ({"iters": -5}, "iters"),
    ({"algorithms": [{"name": "admm", "alpha": 0.1}]}, "algorithms[0].name"),
    ({"algorithms": [{"name": "gt", "alpha": 0.1},
                     {"name": "gt", "alpha": 0.2}]}, "algorithms[1].name"),
    ({"algorithms": [{"name": "nt", "alpha": 1.0}]}, "algorithms[0].eps"),
    ({"algorithms": [{"name": "dlm", "alpha": 0.4}]}, "algorithms[0].eps"),
    ({"stop_tol": 0}, "stop_tol"),
    ({"stop_tol": "-1e-6"}, "stop_tol"),
])
def test_solve_rejects_invalid_config(capsys, tmp_path, change, field):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({**tiny_config_doc(), **change}))
    rc, out, err = run_cli(capsys, "solve", "--config", str(path))
    assert rc == 1
    assert out == ""
    doc = json.loads(err)
    assert doc["error"] == "ValueError"
    assert doc["message"].startswith(field + ":")


def test_solve_rejects_pinned_topology_of_another_size(capsys, tmp_path):
    net = tmp_path / "net.json"
    rc, _, _ = run_cli(capsys, "spectra", "--kind", "cycle", "--n", "5",
                       "--out", str(net))
    assert rc == 0
    doc = tiny_config_doc()
    doc["topology"] = {"kind": "cycle", "n": 9, "file": str(net)}
    path = tmp_path / "pinned.json"
    path.write_text(json.dumps(doc))
    rc, out, err = run_cli(capsys, "solve", "--config", str(path))
    assert rc == 1
    assert out == ""
    assert json.loads(err) == {
        "error": "ValueError",
        "message": "topology.n: 9 but the pinned file has 5 nodes"}


def test_a_pinned_record_checks_without_its_file(capsys, tmp_path):
    # CI's quadratic config on a topology that spectra --out pinned.  The
    # record carries that topology, so check re-runs on it once the file is
    # gone and reports as it did with the file.  A file that is present is
    # read: edited to another connected graph, it fails determinism.
    pin = tmp_path / "pin.json"
    spectra = ["spectra", "--kind", "random", "--n", "12", "--tau", "0.4",
               "--seed-topology", "3", "--out", str(pin)]
    assert run_cli(capsys, *spectra)[0] == 0
    config = tmp_path / "quad.json"
    config.write_text(json.dumps({
        "name": "quad-pinned",
        "topology": {"kind": "random", "n": 12, "file": str(pin)},
        "data": {"family": "quadratic", "p": 4, "seed": 2},
        "algorithms": [{"name": "nt", "alpha": 1.0, "eps": 2.0},
                       {"name": "gt", "alpha": 0.1}, {"name": "extra", "alpha": 0.1},
                       {"name": "dlm", "alpha": 0.1, "eps": 1.0}],
        "iters": 60}))
    run = tmp_path / "quad"
    assert run_cli(capsys, "solve", "--config", str(config), "--out", str(run))[0] == 0
    check = ["check", "--record", str(run / "record.json")]
    with_file = run_cli(capsys, *check)
    pin.rename(tmp_path / "moved.json")
    rc, out, err = run_cli(capsys, *check)
    assert (rc, err) == (0, "")
    assert (rc, out, err) == with_file
    assert all(entry["passed"] for entry in json.loads(out)["checks"].values())

    assert run_cli(capsys, "spectra", "--kind", "cycle", "--n", "12", "--out", str(pin))[0] == 0
    rc, out, err = run_cli(capsys, *check)
    assert rc == 2
    assert json.loads(out)["checks"]["determinism"]["passed"] is False
    assert "determinism" in json.loads(err)["failed"]


def test_solve_needs_config_or_preset(capsys):
    rc, _, err = run_cli(capsys, "solve")
    assert rc == 1
    assert "preset" in json.loads(err)["message"]


@pytest.mark.parametrize("command", ["solve", "sweep", "certify"])
def test_config_and_preset_together_are_refused(capsys, tmp_path, command):
    # Either flag names the whole config, so the other would be dropped
    # unread: both together exit 1 before anything runs.
    cfg = tmp_path / "tiny.json"
    cfg.write_text(json.dumps(tiny_config_doc()))
    rc, out, err = run_cli(capsys, command, "--config", str(cfg), "--preset", "fig1",
                           "--out", str(tmp_path / "out"))
    assert (rc, out) == (1, "")
    assert json.loads(err) == {"error": "ValueError",
                               "message": "--config and --preset: give one, not both"}
    assert not (tmp_path / "out").exists()


def test_solve_unknown_preset(capsys):
    rc, _, err = run_cli(capsys, "solve", "--preset", "fig9")
    assert rc == 1
    doc = json.loads(err)
    assert doc["error"] == "ValueError"
    assert "fig9" in doc["message"]


def test_data_seed_override_changes_digest(capsys, tmp_path):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(tiny_config_doc(iters=3)))
    _, out_a, _ = run_cli(capsys, "solve", "--config", str(path))
    _, out_b, _ = run_cli(capsys, "solve", "--config", str(path),
                          "--seed-data", "99")
    assert json.loads(out_a)["dataset_digest"] != \
        json.loads(out_b)["dataset_digest"]


def test_a_negative_seed_flag_fails_naming_the_field(capsys):
    # numpy's generators would reject it at set-up, naming no field.
    for flag, field in (("--seed-data", "data.seed"),
                        ("--seed-topology", "topology.seed")):
        rc, _, err = run_cli(capsys, "solve", "--preset", "fig1", flag, "-1")
        assert rc == 1
        assert json.loads(err) == {"error": "ValueError",
                                   "message": f"{field}: must be >= 0, got -1"}


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def test_sweep_over_kinds(capsys, tmp_path):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(tiny_config_doc(iters=20)))
    out_dir = tmp_path / "sweep"
    rc, out, _ = run_cli(capsys, "sweep", "--config", str(path),
                         "--kinds", "line,complete", "--out", str(out_dir))
    assert rc == 0
    doc = json.loads(out)
    assert set(doc) == {"line", "complete"}
    for kind in ("line", "complete"):
        assert doc[kind]["iterations"]["nt"] == 20
        assert (out_dir / kind / "record.json").exists()
    # the complete graph mixes strictly better than the line
    assert doc["complete"]["spectra"]["lambda_min_nz"] > \
        doc["line"]["spectra"]["lambda_min_nz"]


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------

def test_certify_explicit_reference_values(capsys):
    rc, out, _ = run_cli(capsys, "certify", "--mu", "1", "--lip", "1",
                         "--lambda-max", "1.0", "--lambda-min-nz", "1.0",
                         "--alpha", "0.1", "--eps", "5")
    assert rc == 0
    doc = json.loads(out)
    assert doc["feasible"] is True
    assert doc["q_min"] == pytest.approx(4.9, rel=1e-15)
    assert doc["delta"] == pytest.approx(0.1836734693877552, rel=1e-12)
    assert doc["delta_prime"] == pytest.approx(0.00024439107399316945,
                                               rel=1e-12)
    assert doc["contraction"] == pytest.approx(0.9997556686384108, rel=1e-12)


@pytest.mark.parametrize("flag, value, message", [
    ("--lambda-min-nz", "0", "lambda_min_nz: must be in (0, lambda_max = 1.0], got 0.0"),
    ("--lambda-min-nz", "-0.5", "lambda_min_nz: must be in (0, lambda_max = 1.0], got -0.5"),
    ("--lambda-min-nz", "1.5", "lambda_min_nz: must be in (0, lambda_max = 1.0], got 1.5"),
    ("--lambda-max", "nan", "lambda_max: must be finite, got nan"),
    ("--lambda-max", "inf", "lambda_max: must be finite, got inf"),
    ("--lip", "inf", "lip: must be finite, got inf"),
    ("--eps", "nan", "eps: must be finite, got nan"),
    ("--beta", "inf", "beta: must be finite, got inf"),
], ids=["lambda-min-zero", "lambda-min-negative", "lambdas-out-of-order",
        "lambda-max-nan", "lambda-max-inf", "lip-inf", "eps-nan", "beta-inf"])
def test_certify_explicit_rejects_bad_inputs(capsys, flag, value, message):
    # Spectra out of order, a zero or negative lambda_min_nz, or a non-finite
    # number fails with one JSON error line naming the quantity; none
    # prints a certificate.
    args = {"--mu": "1", "--lip": "1", "--lambda-max": "1.0",
            "--lambda-min-nz": "1.0", "--alpha": "0.1", "--eps": "5"}
    args[flag] = value
    rc, out, err = run_cli(capsys, "certify",
                           *(s for kv in args.items() for s in kv))
    assert (rc, out) == (1, "")
    assert json.loads(err) == {"error": "ValueError", "message": message}


def test_certify_explicit_needs_all_numbers(capsys):
    rc, _, err = run_cli(capsys, "certify", "--mu", "1", "--lip", "1")
    assert rc == 1
    assert "lambda-max" in json.loads(err)["message"]


def test_certify_has_no_iters_option(capsys):
    # A certificate needs no iterations, so certify does not take --iters.
    with pytest.raises(SystemExit) as exc:
        main(["certify", "--preset", "fig1", "--iters", "5"])
    assert exc.value.code == 2
    assert "--iters" in capsys.readouterr().err


def test_certify_preset_infeasible(capsys):
    # published fig1 step sizes violate the sufficient condition
    rc, out, _ = run_cli(capsys, "certify", "--preset", "fig1")
    assert rc == 0
    doc = json.loads(out)
    assert doc["feasible"] is False
    assert doc["delta"] is None
    assert doc["contraction"] is None
    assert doc["q_min"] < 0


def test_certify_prints_the_certificate_the_record_keeps(capsys, tmp_path):
    # One document: certify's output is the record's certificates.nt, key
    # for key in order, value for value.
    rc, out, _ = run_cli(capsys, "certify", "--preset", "fig1")
    assert rc == 0
    rc, _, _ = run_cli(capsys, "solve", "--preset", "fig1", "--iters", "0",
                       "--out", str(tmp_path))
    assert rc == 0
    record = json.loads((tmp_path / "record.json").read_text())
    assert list(json.loads(out).items()) == list(record["certificates"]["nt"].items())
    assert out == json.dumps(record["certificates"]["nt"], indent=2) + "\n"


@pytest.mark.parametrize("mode", ["preset", "config", "explicit"])
def test_certify_beta_and_phi_apply_in_every_mode(capsys, tmp_path, mode):
    # The certificate's free parameters come from the flags alone, whether
    # the bounds and spectra come from a preset, a config file or by hand.
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(tiny_config_doc()))
    source = {"preset": ["--preset", "fig1"], "config": ["--config", str(path)],
              "explicit": ["--mu", "1", "--lip", "1", "--lambda-max", "1.0",
                           "--lambda-min-nz", "1.0", "--alpha", "0.1",
                           "--eps", "5"]}[mode]
    rc, out, _ = run_cli(capsys, "certify", *source, "--beta", "10", "--phi", "3")
    assert rc == 0
    doc = json.loads(out)
    assert (doc["beta"], doc["phi"]) == (10.0, 3.0)
    rc, _, err = run_cli(capsys, "certify", *source, "--beta", "1")
    assert rc == 1
    assert json.loads(err)["message"] == "beta and phi must be greater than 1"


@pytest.mark.parametrize("source", [["--preset", "fig1"], ["--config"]],
                         ids=["preset", "config"])
@pytest.mark.parametrize("flags, given", [
    (["--mu", "5", "--lip", "7"], "--mu, --lip"),
    (["--lambda-max", "1.5", "--alpha", "0.1"], "--lambda-max"),
    (["--lambda-min-nz", "0.1", "--mu", "5"], "--mu, --lambda-min-nz"),
], ids=["bounds", "lambda-max", "lambda-min-and-mu"])
def test_certify_refuses_explicit_flags_with_a_config(capsys, tmp_path, source,
                                                      flags, given):
    # A config or preset brings its own bounds and spectra, so explicit-mode
    # numbers beside it would be dropped unread: they are refused, each
    # named in the order certify declares them.  --alpha, --eps, --beta and
    # --phi still apply in every mode.
    if source == ["--config"]:
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(tiny_config_doc()))
        source = ["--config", str(path)]
    rc, out, err = run_cli(capsys, "certify", *source, *flags)
    assert (rc, out) == (1, "")
    assert json.loads(err) == {
        "error": "ValueError",
        "message": f"{given}: explicit mode only, not with --config or --preset"}


@pytest.mark.parametrize("flags, given", [
    (["--seed-topology", "3"], "--seed-topology"),
    (["--seed-data", "9"], "--seed-data"),
    (["--seed-data", "9", "--seed-topology", "3"], "--seed-topology, --seed-data"),
], ids=["topology", "data", "both"])
def test_certify_refuses_seeds_in_explicit_mode(capsys, flags, given):
    # The seeds pick a config's instance; explicit numbers have none, so
    # the seeds would be dropped unread: they are refused, named in the
    # order certify declares them.
    rc, out, err = run_cli(capsys, "certify", "--mu", "1", "--lip", "1",
                           "--lambda-max", "1.0", "--lambda-min-nz", "1.0",
                           "--alpha", "0.1", "--eps", "5", *flags)
    assert (rc, out) == (1, "")
    assert json.loads(err) == {
        "error": "ValueError",
        "message": f"{given}: with --config or --preset only, not in explicit mode"}


@pytest.mark.parametrize("name", ["fig1", "fig4-n50", "fig5-n100", "topo-n10"])
def test_certify_modes_agree(capsys, name):
    # A preset's own certificate inputs, each passed by repr in explicit
    # mode, print the preset's certificate byte for byte.
    rc, out, _ = run_cli(capsys, "certify", "--preset", name)
    assert rc == 0
    doc = json.loads(out)
    flags = {"--mu": "mu", "--lip": "lip", "--lambda-max": "lam_max",
             "--lambda-min-nz": "lam_min_nz", "--alpha": "alpha", "--eps": "eps"}
    rc, explicit, _ = run_cli(capsys, "certify", *(
        s for flag, key in flags.items() for s in (flag, repr(doc[key]))))
    assert rc == 0
    assert explicit == out


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

def test_check_round_trip(capsys, tmp_path):
    cfg = tmp_path / "tiny.json"
    cfg.write_text(json.dumps(tiny_config_doc()))
    out_dir = tmp_path / "run"
    rc, _, _ = run_cli(capsys, "solve", "--config", str(cfg),
                       "--out", str(out_dir))
    assert rc == 0
    record = out_dir / "record.json"
    rc, out, err = run_cli(capsys, "check", "--record", str(record),
                           "--window", "20")
    assert rc == 0
    assert err == ""
    doc = json.loads(out)
    assert doc["passed"] is True
    assert doc["checks"]["determinism"]["passed"] is True


def test_check_flags_tampering(capsys, tmp_path):
    cfg = tmp_path / "tiny.json"
    cfg.write_text(json.dumps(tiny_config_doc()))
    out_dir = tmp_path / "run"
    run_cli(capsys, "solve", "--config", str(cfg), "--out", str(out_dir))
    record = out_dir / "record.json"
    doc = json.loads(record.read_text())
    doc["traces"]["nt"]["rel_error"][-1] *= 2.0
    record.write_text(json.dumps(doc))
    rc, out, err = run_cli(capsys, "check", "--record", str(record),
                           "--window", "10")
    assert rc == 2
    assert json.loads(out)["passed"] is False
    failure = json.loads(err)
    assert failure["error"] == "check_failed"
    assert "determinism" in failure["failed"]


@pytest.mark.parametrize("method", ["extra", "gt", "nt"])
def test_check_flags_a_record_that_lacks_a_configured_trace(capsys, tmp_path, method):
    # A record that lacks one configured method's trace still loads; its
    # check names the method under determinism and exits 2.
    doc = tiny_config_doc(iters=10)
    doc["algorithms"].append({"name": "extra", "alpha": 0.1, "eps": None})
    cfg = tmp_path / "three.json"
    cfg.write_text(json.dumps(doc))
    run_cli(capsys, "solve", "--config", str(cfg), "--out", str(tmp_path / "run"))
    record = tmp_path / "run" / "record.json"
    doc = json.loads(record.read_text())
    assert list(doc["traces"]) == ["nt", "gt", "extra"]
    del doc["traces"][method]
    record.write_text(json.dumps(doc))
    rc, out, err = run_cli(capsys, "check", "--record", str(record))
    assert rc == 2
    determinism = json.loads(out)["checks"]["determinism"]
    assert determinism["passed"] is False
    assert determinism["detail"]["mismatched"] == [method]
    assert determinism["detail"]["trace_match"] is False
    assert json.loads(err) == {"error": "check_failed", "failed": ["determinism"]}


def test_check_rejects_a_negative_window(capsys, tmp_path):
    cfg = tmp_path / "tiny.json"
    cfg.write_text(json.dumps(tiny_config_doc(iters=5)))
    run_cli(capsys, "solve", "--config", str(cfg), "--out", str(tmp_path / "run"))
    rc, out, err = run_cli(capsys, "check", "--record",
                           str(tmp_path / "run" / "record.json"), "--window", "-3")
    assert (rc, out) == (1, "")
    assert json.loads(err) == {"error": "ValueError",
                               "message": "window: must be >= 0, got -3"}


def test_check_at_window_zero_replays_no_step(capsys, tmp_path):
    # A window of 0 compares the whole re-run (determinism) but replays no
    # step: no equivalence steps, no remainder to bound, and the record
    # passes.
    out_dir = tmp_path / "run"
    run_cli(capsys, "solve", "--preset", "fig1", "--iters", "30", "--out", str(out_dir))
    rc, out, err = run_cli(capsys, "check", "--record", str(out_dir / "record.json"),
                           "--window", "0")
    assert (rc, err) == (0, "")
    doc = json.loads(out)
    assert doc["passed"] is True
    assert doc["checks"]["equivalence"]["detail"]["steps"] == 0
    assert doc["checks"]["remainder_bound"] == {
        "passed": True, "detail": {"violations": 0, "worst": 0.0}}


def test_check_missing_record(capsys, tmp_path):
    rc, _, err = run_cli(capsys, "check", "--record",
                         str(tmp_path / "absent.json"))
    assert rc == 1
    assert json.loads(err)["error"] == "FileNotFoundError"


def test_main_repeats_solve_check_sweep_in_one_process(capsys, tmp_path):
    # One process may run the commands many times over (its parser is built
    # once); each pass prints the same documents.
    record = str(tmp_path / "solve" / "record.json")
    runs = []
    for _ in range(2):
        runs.append([run_cli(capsys, *argv) for argv in (
            ["solve", "--preset", "fig1", "--iters", "30",
             "--out", str(tmp_path / "solve")],
            ["check", "--record", record, "--window", "30"],
            ["sweep", "--preset", "topo-n10", "--iters", "30",
             "--out", str(tmp_path / "sweep")])])
    assert [rc for rc, _, _ in runs[0]] == [0, 0, 0]
    assert runs[0] == runs[1]
    assert json.loads(runs[0][1][1])["passed"] is True


DELETE = object()


@pytest.mark.parametrize("key, value, message", [
    ("spectra", DELETE, "spectra: missing"),
    ("extra_field", 1, "extra_field: unknown key"),
    ("traces", [], "traces: must be an object"),
    ("traces.nt.bogus", 1, "traces.nt.bogus: unknown key"),
    ("traces.nt.rel_error", DELETE, "traces.nt.rel_error: missing"),
    ("x_star", "abc", "x_star: not a number"),
    ("x_star", [1.0, True, 0.5], "x_star: not a number: True"),
    ("x_star", [1.0, None, 0.5], "x_star: not a number: None"),
    ("ref_residual", True, "ref_residual: not a number: True"),
    ("config.iters", -1, "config.iters: must be >= 0"),
    ("config.topology.n", 1, "config.topology.n: must be >= 2"),
    ("config.algorithms.0.eps", DELETE, "config.algorithms[0].eps: 'nt' needs eps"),
    ("config.algorithms", [], "config.algorithms: empty; name at least one method"),
    ("certificates.nt.mu", True, "certificates.nt.mu: not a number: True"),
    ("certificates.nt.feasible", 1, "certificates.nt.feasible: must be a boolean"),
    ("spectra.lambda_max", None, "spectra.lambda_max: not a number: None"),
    ("topology.weights.0.1", False, "topology.weights[0][1]: not a number: False"),
    ("traces.nt.rel_error.1", True, "traces.nt.rel_error[1]: not a number: True"),
    ("traces.nt.kkt_dual.2", "abc", "traces.nt.kkt_dual[2]: not a number: 'abc'"),
    ("topology.edges.0", [0], "topology.edges must be pairs (i, j)"),
    ("topology.n", 9, "config.topology.n: 5 but the pinned file has 9 nodes"),
    # A record written while nt's traces kept the step remainder, which
    # check now replays.
    ("traces.nt.remainder_norm", [None, 0.5, 0.25, 0.125],
     "traces.nt.remainder_norm: unknown key"),
    ("traces.nt.scalars_per_round", 0, "traces.nt.scalars_per_round: must be >= 1, got 0"),
    ("traces.gt.scalars_per_round", -80,
     "traces.gt.scalars_per_round: must be >= 1, got -80"),
], ids=["missing", "unknown", "traces-list", "trace-key", "trace-column", "x-star",
        "bool-array", "null-array", "bool-float", "config-range", "spec-range", "needs-eps",
        "no-method", "bool-certificate", "int-feasible", "null-spectrum", "bool-weight",
        "bool-trace-entry", "string-trace-entry", "edge-no-pair", "pinned-size",
        "remainder-column", "zero-count", "negative-count"])
def test_malformed_record_fails_at_load_naming_the_path(capsys, tmp_path, key,
                                                        value, message):
    # A record is read like a config: a bad key, or a config value or a
    # trace's scalar count out of range, fails at load, through the library
    # and through check, with a ValueError naming its path in the record.
    cfg = tmp_path / "tiny.json"
    cfg.write_text(json.dumps(tiny_config_doc(iters=3)))
    run_cli(capsys, "solve", "--config", str(cfg), "--out", str(tmp_path / "run"))
    record = tmp_path / "run" / "record.json"
    doc = json.loads(record.read_text())
    *parents, last = key.split(".")
    def entry(d, k):
        return int(k) if isinstance(d, list) else k
    owner = functools.reduce(lambda d, k: d[entry(d, k)], parents, doc)
    if value is DELETE:
        del owner[last]
    else:
        owner[entry(owner, last)] = value
    record.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        load_record(record)
    rc, out, err = run_cli(capsys, "check", "--record", str(record))
    assert (rc, out) == (1, "")
    failure = json.loads(err)
    assert failure["error"] == "ValueError"
    assert failure["message"].startswith(message)


COLUMNS = ("rel_error", "gnorm_error", "tracking_residual", "kkt_primal", "kkt_dual",
           "wall_ms")


@functools.cache
def fig1_record_text() -> str:
    return json.dumps(run_experiment(dataclasses.replace(preset("fig1"), iters=4)).to_doc())


@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_a_planted_entry_fails_at_load_naming_its_path(capsys, tmp_path, data):
    # One bad entry anywhere in a short fig1 record: a boolean or a string
    # in any trace column, a null where a column holds numbers only, a
    # fraction in the per-round scalar count, an edge that is no pair, or a
    # weight off the edges.  load_record names its path, and check exits 1 with that
    # message as its one line on stderr, before any re-run.
    doc = json.loads(fig1_record_text())
    trace = doc["traces"]["nt"]
    bad = data.draw(st.sampled_from(["bool", "string", "null", "fraction", "edge", "weight"]))
    if bad in ("edge", "weight"):
        topo = doc["topology"]
        if bad == "edge":
            topo["edges"][data.draw(st.integers(0, len(topo["edges"]) - 1))] = \
                data.draw(st.sampled_from([[], [0], [0, 1, 2]]))
            message = "topology.edges must be pairs (i, j)"
        else:
            pairs = [(i, j) for i in range(topo["n"]) for j in range(i + 1, topo["n"])
                     if [i, j] not in topo["edges"]]
            i, j = data.draw(st.sampled_from(pairs))
            topo["weights"][i][j] = topo["weights"][j][i] = 0.01
            message = "topology.weights: w["
    elif bad == "fraction":
        trace["scalars_per_round"] = data.draw(st.sampled_from([0.5, 1.25, 7.000001]))
        message = "traces.nt.scalars_per_round: not an integer: "
    else:
        column = data.draw(st.sampled_from(
            {"bool": COLUMNS, "string": COLUMNS,
             "null": ("rel_error", "kkt_primal", "wall_ms")}[bad]))
        t = data.draw(st.integers(0, len(trace[column]) - 1))
        trace[column][t] = data.draw({
            "bool": st.booleans(), "string": st.sampled_from(["abc", "", "1.5.2"]),
            "null": st.none()}[bad])
        message = f"traces.nt.{column}[{t}]: not "
    record = tmp_path / "record.json"
    record.write_text(json.dumps(doc))
    with pytest.raises(ValueError) as err:
        load_record(record)
    assert str(err.value).startswith(message), (bad, str(err.value))
    rc, out, err_text = run_cli(capsys, "check", "--record", str(record))
    assert (rc, out, err_text.count("\n")) == (1, "", 1)
    assert json.loads(err_text) == {"error": "ValueError", "message": str(err.value)}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def test_diverging_run_keeps_stderr_json(tmp_path):
    # nt at alpha=50, eps=0.01 on fig1 overflows before it stops; stderr
    # must hold nothing or one JSON object, never numpy warnings.
    doc = {**preset("fig1").to_doc(),
           "algorithms": [{"name": "nt", "alpha": 50.0, "eps": 0.01}]}
    path = tmp_path / "diverge.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    for argv, rc in ((["solve", "--config", str(path), "--out", str(out)], 0),
                     (["check", "--record", str(out / "record.json")], 2)):
        proc = subprocess.run([sys.executable, "-m", "newtrack.cli", *argv],
                              capture_output=True, text=True, timeout=120,
                              env=module_env())
        assert proc.returncode == rc, proc.stderr
        json.loads(proc.stdout)
        if proc.stderr:
            assert isinstance(json.loads(proc.stderr), dict)
    assert json.loads(proc.stderr)["error"] == "check_failed"


@pytest.mark.parametrize("solve_threads, check_threads", [("1", "2"), ("2", "1")])
def test_record_checks_at_another_blas_thread_count(tmp_path, solve_threads,
                                                    check_threads):
    # Solve on one host, check on another: x*, ref_residual and the root of
    # I - W come from products whose rounding does not follow the OpenBLAS
    # thread count, so fig5-n100's record (n 100) re-runs bit for bit.
    out = tmp_path / "out"
    for argv, threads in (
            (["solve", "--preset", "fig5-n100", "--iters", "30", "--out", str(out)],
             solve_threads),
            (["check", "--record", str(out / "record.json")], check_threads)):
        proc = subprocess.run([sys.executable, "-m", "newtrack.cli", *argv],
                              capture_output=True, text=True, timeout=120,
                              env={**module_env(), "OPENBLAS_NUM_THREADS": threads})
        assert proc.returncode == 0, (threads, proc.stderr)


def test_diverging_low_rank_run_writes_one_json_line(capsys, monkeypatch, tmp_path):
    # fig4-n50's data (m 10 < p 20) on 10 nodes, nt at alpha=50, eps=0.01:
    # from the third solve on every curvature weight is exactly 0, so the
    # m < p solve divides by zero, and the iterates overflow before the run
    # stops.  Neither may leak a warning (an error under the tests' filter,
    # which main would report): solve writes no stderr, and check's one line
    # is its failure.
    doc = {**preset("fig4-n50").to_doc(), "iters": 400,
           "algorithms": [{"name": "nt", "alpha": 50.0, "eps": 0.01}]}
    doc["topology"] = {**doc["topology"], "n": 10}
    path = tmp_path / "diverge.json"
    path.write_text(json.dumps(doc))
    zero = []
    real = algorithms.reg_solve
    monkeypatch.setattr(algorithms, "reg_solve", lambda family, curve, eps, rhs:
                        zero.append(bool((curve == 0).any()))
                        or real(family, curve, eps, rhs))
    out = tmp_path / "out"
    rc, stdout, err = run_cli(capsys, "solve", "--config", str(path),
                              "--out", str(out))
    assert (rc, err) == (0, "")
    assert json.loads(stdout)["status"] == {"nt": "diverged"}
    assert any(zero)
    rc, stdout, err = run_cli(capsys, "check", "--record", str(out / "record.json"))
    assert rc == 2
    json.loads(stdout)
    assert err.count("\n") == 1
    assert json.loads(err)["error"] == "check_failed"


@pytest.mark.parametrize("key, text", [("alpha", "nan"), ("eps", "inf")])
def test_bad_step_size_fails_at_load_with_one_json_line(tmp_path, key, text):
    # Before any run: no numpy warning on stderr, no output on stdout.
    doc = tiny_config_doc()
    doc["algorithms"][0][key] = text
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    proc = subprocess.run([sys.executable, "-m", "newtrack.cli", "solve",
                           "--config", str(path)],
                          capture_output=True, text=True, timeout=60,
                          env=module_env())
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.count("\n") == 1
    assert json.loads(proc.stderr) == {
        "error": "ValueError",
        "message": f"algorithms[0].{key}: must be a finite number > 0, got {text}"}


def test_module_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "newtrack.cli", "spectra",
         "--kind", "cycle", "--n", "6"],
        capture_output=True, text=True, timeout=60, env=module_env())
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["lambda_max"] == pytest.approx(4.0 / 3.0, abs=1e-9)
