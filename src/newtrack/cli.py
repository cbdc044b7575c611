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
import json
import sys
from pathlib import Path
from types import SimpleNamespace

from . import analysis
from .harness import (PRESET_NAMES, RunConfig, _build_network, _cert_doc,
                      _make_family, load_record, preset, run_checks,
                      run_experiment, topology_sweep, write_outputs)
from .objectives import ObjectiveBounds, convexity_bounds
from .topology import (build_topology, metropolis_weights, spectral_stats,
                       topology_to_doc)


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
    graph = build_topology(args.kind, args.n, tau=args.tau,
                           seed=args.seed_topology)
    mix = metropolis_weights(graph)
    stats = spectral_stats(mix)
    doc = topology_to_doc(graph, mix)
    doc["lambda_max"] = stats.lambda_max
    doc["lambda_min_nz"] = stats.lambda_min_nz
    doc["kind"] = args.kind
    _emit(doc, args.out)
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
    if args.config or args.preset:
        config = _load_config(args)
        graph, mix = _build_network(config.topology)
        spectra = spectral_stats(mix)
        family, _ = _make_family(config.data, graph.n)
        bounds = convexity_bounds(family)
        nt = [a for a in config.algorithms if a.name == "nt"]
        if not nt:
            raise ValueError("config has no curvature-tracked algorithm to certify")
        alpha = args.alpha if args.alpha is not None else nt[0].alpha
        eps = args.eps if args.eps is not None else nt[0].eps
        cert = analysis.rate_certificate(bounds, spectra, alpha, eps,
                                         config.beta, config.phi)
    else:
        needed = (args.mu, args.lip, args.lambda_max, args.lambda_min_nz,
                  args.alpha, args.eps)
        if any(v is None for v in needed):
            raise ValueError(
                "explicit mode needs --mu --lip --lambda-max --lambda-min-nz "
                "--alpha --eps")
        bounds = ObjectiveBounds(mu=args.mu, lip=args.lip)
        spectra = SimpleNamespace(lambda_max=args.lambda_max,
                                  lambda_min_nz=args.lambda_min_nz)
        cert = analysis.rate_certificate(bounds, spectra, args.alpha, args.eps,
                                         args.beta, args.phi)
    _emit(_cert_doc(cert), args.out)
    return 0


def _cmd_check(args) -> int:
    record = load_record(args.record)
    report = run_checks(record, window=args.window)
    _emit(report.to_doc())
    if not report.passed:
        failed = [k for k, v in report.checks.items() if not v["passed"]]
        print(json.dumps({"error": "check_failed", "failed": failed}),
              file=sys.stderr)
        return 2
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="newtrack",
        description="Decentralized consensus optimization with curvature "
                    "tracking, first-order baselines, and rate certificates.")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("spectra", help="spectral report for a topology")
    sp.add_argument("--kind", required=True,
                    help="line, cycle, complete, or random")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--tau", type=float, default=None)
    sp.add_argument("--seed-topology", type=int, default=None)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=_cmd_spectra)

    for name, fn, extra in (("solve", _cmd_solve, ()),
                            ("sweep", _cmd_sweep, ("kinds",))):
        sp = sub.add_parser(name, help=f"{name} a config or preset")
        sp.add_argument("--config", default=None, help="RunConfig JSON path")
        sp.add_argument("--preset", default=None,
                        help=f"one of {', '.join(PRESET_NAMES)}")
        sp.add_argument("--iters", type=int, default=None)
        sp.add_argument("--seed-topology", type=int, default=None)
        sp.add_argument("--seed-data", type=int, default=None)
        sp.add_argument("--out", default=None, help="output directory")
        if "kinds" in extra:
            sp.add_argument("--kinds", default="line,cycle,complete")
        sp.set_defaults(func=fn)

    sp = sub.add_parser("certify", help="rate certificate from bounds and spectra")
    sp.add_argument("--config", default=None)
    sp.add_argument("--preset", default=None,
                    help=f"one of {', '.join(PRESET_NAMES)}")
    sp.add_argument("--mu", type=float, default=None)
    sp.add_argument("--lip", type=float, default=None)
    sp.add_argument("--lambda-max", dest="lambda_max", type=float, default=None)
    sp.add_argument("--lambda-min-nz", dest="lambda_min_nz", type=float,
                    default=None)
    sp.add_argument("--alpha", type=float, default=None)
    sp.add_argument("--eps", type=float, default=None)
    sp.add_argument("--beta", type=float, default=2.0)
    sp.add_argument("--phi", type=float, default=2.0)
    sp.add_argument("--iters", type=int, default=None)
    sp.add_argument("--seed-topology", type=int, default=None)
    sp.add_argument("--seed-data", type=int, default=None)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=_cmd_certify)

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
