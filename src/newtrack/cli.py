"""Command-line entry points.

Subcommands: spectra (topology spectral report), solve (run a config or
preset), sweep (same config across topology kinds), certify (rate
certificate from bounds and spectra), check (invariant suite over a
recorded run).  Errors leave exit code 1 and a JSON error object on
stderr; check violations leave exit code 2.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import inspect
import json
import sys
from pathlib import Path
from types import SimpleNamespace

from . import analysis
from .harness import (PRESET_NAMES, RunConfig, TopologySpec, build_network,
                      build_objective, load_record, preset, run_checks,
                      run_experiment, topology_sweep, topology_to_doc,
                      write_outputs)
from .objectives import ObjectiveBounds
from .topology import KINDS


def _load_config(args) -> RunConfig:
    if args.config:
        config = RunConfig.from_doc(json.loads(Path(args.config).read_text()))
    elif args.preset:
        config = preset(args.preset)
    else:
        raise ValueError("need --config or --preset")
    if getattr(args, "iters", None) is not None:
        config = dataclasses.replace(config, iters=args.iters)
    if getattr(args, "seed_topology", None) is not None:
        config = dataclasses.replace(
            config, topology=dataclasses.replace(config.topology,
                                                 seed=args.seed_topology))
    if getattr(args, "seed_data", None) is not None:
        config = dataclasses.replace(
            config, data=dataclasses.replace(config.data, seed=args.seed_data))
    return config


def _emit(doc: dict, out: str | None = None) -> None:
    """Print doc as strict JSON (no NaN or Infinity), also to `out` if given."""
    text = json.dumps(doc, indent=2, allow_nan=False)
    if out:
        Path(out).write_text(text + "\n")
    print(text)


def _summary(record) -> dict:
    return {
        "final_rel_error": {name: trace.rel_error[-1]
                            for name, trace in record.traces.items()},
        "iterations": {name: len(trace) - 1
                       for name, trace in record.traces.items()},
        "status": {name: trace.status for name, trace in record.traces.items()},
    }


def _cmd_spectra(args) -> int:
    net = build_network(TopologySpec(kind=args.kind, n=args.n, tau=args.tau,
                                     seed=args.seed_topology))
    _emit({**topology_to_doc(net.graph, net.mix), "lambda_max": net.spectra.lambda_max,
           "lambda_min_nz": net.spectra.lambda_min_nz, "kind": args.kind}, args.out)
    return 0


def _cmd_solve(args) -> int:
    config = _load_config(args)
    record = run_experiment(config)
    summary = {
        "name": config.name,
        "dataset_digest": record.dataset_digest,
        "ref_residual": record.ref_residual,
        "spectra": record.spectra,
        "certificates": record.certificates,
        **_summary(record),
    }
    if args.out:
        summary["files"] = write_outputs(record, args.out)
    _emit(summary)
    return 0


def _cmd_sweep(args) -> int:
    config = _load_config(args)
    kinds = tuple(k.strip() for k in args.kinds.split(",") if k.strip())
    records = topology_sweep(config, kinds=kinds)
    summary = {}
    for kind, record in records.items():
        entry = {"spectra": record.spectra, **_summary(record)}
        if args.out:
            entry["files"] = write_outputs(record, Path(args.out) / kind)
        summary[kind] = entry
    _emit(summary)
    return 0


def _cmd_certify(args) -> int:
    alpha, eps = args.alpha, args.eps
    explicit = {"--mu": args.mu, "--lip": args.lip, "--lambda-max": args.lambda_max,
                "--lambda-min-nz": args.lambda_min_nz}
    seeds = {"--seed-topology": args.seed_topology, "--seed-data": args.seed_data}
    from_config = bool(args.config or args.preset)
    # a flag that only the other mode reads would be dropped unread
    unread, mode = (explicit, "explicit mode only, not with --config or --preset") \
        if from_config else (seeds, "with --config or --preset only, not in explicit mode")
    if given := [flag for flag, value in unread.items() if value is not None]:
        raise ValueError(f"{', '.join(given)}: {mode}")
    if from_config:
        config = _load_config(args)
        net, obj = build_network(config.topology), build_objective(config)
        nt = [a for a in config.algorithms if a.name == "nt"]
        if not nt:
            raise ValueError("config has no curvature-tracked algorithm to certify")
        alpha = nt[0].alpha if alpha is None else alpha
        eps = nt[0].eps if eps is None else eps
        bounds, spectra = obj.bounds, net.spectra
    else:
        if None in (*explicit.values(), alpha, eps):
            raise ValueError(f"explicit mode needs {' '.join(explicit)} --alpha --eps")
        bounds = ObjectiveBounds(mu=args.mu, lip=args.lip)
        spectra = SimpleNamespace(lambda_max=args.lambda_max,
                                  lambda_min_nz=args.lambda_min_nz)
    _emit(analysis.rate_certificate(bounds, spectra, alpha, eps, args.beta, args.phi),
          args.out)
    return 0


def _cmd_check(args) -> int:
    record = load_record(args.record)
    report = run_checks(record, window=args.window)
    _emit(report)
    if not report["passed"]:
        failed = [k for k, v in report["checks"].items() if not v["passed"]]
        print(json.dumps({"error": "check_failed", "failed": failed}),
              file=sys.stderr)
        return 2
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it
    as it was, so every main call shares it."""
    parser = argparse.ArgumentParser(
        prog="newtrack",
        description="Decentralized consensus optimization with curvature "
                    "tracking, first-order baselines, and rate certificates.")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("spectra", help="spectral report for a topology")
    sp.add_argument("--kind", required=True, help=f"one of {', '.join(KINDS)}")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--tau", type=float, default=None)
    sp.add_argument("--seed-topology", type=int, default=None)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=_cmd_spectra)

    for name, fn, text in (
            ("solve", _cmd_solve, "solve a config or preset"),
            ("sweep", _cmd_sweep, "sweep a config or preset"),
            ("certify", _cmd_certify, "rate certificate from bounds and spectra")):
        sp = sub.add_parser(name, help=text)
        sp.add_argument("--config", default=None, help="RunConfig JSON path")
        sp.add_argument("--preset", default=None,
                        help=f"one of {', '.join(PRESET_NAMES)}")
        sp.add_argument("--seed-topology", type=int, default=None)
        sp.add_argument("--seed-data", type=int, default=None)
        sp.add_argument("--out", default=None, help="output file" if
                        name == "certify" else "output directory")
        sp.set_defaults(func=fn)
        if name != "certify":  # a certificate depends on no iteration
            sp.add_argument("--iters", type=int, default=None)
        if name == "sweep":
            kinds = inspect.signature(topology_sweep).parameters["kinds"].default
            sp.add_argument("--kinds", default=",".join(kinds))
        if name == "certify":  # explicit mode: bounds and spectra by hand
            for flag in ("--mu", "--lip", "--lambda-max", "--lambda-min-nz",
                         "--alpha", "--eps"):
                sp.add_argument(flag, type=float, default=None)
            # every mode: the certificate's free parameters, both > 1
            sp.add_argument("--beta", type=float, default=2.0)
            sp.add_argument("--phi", type=float, default=2.0)

    sp = sub.add_parser("check", help="invariant suite over a recorded run")
    sp.add_argument("--record", required=True, help="record.json from solve")
    sp.add_argument("--window", type=int, default=100)
    sp.set_defaults(func=_cmd_check)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as err:  # noqa: BLE001 - uniform machine-readable errors
        print(json.dumps({"error": type(err).__name__, "message": str(err)}),
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
