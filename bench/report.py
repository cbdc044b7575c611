#!/usr/bin/env python3
"""Run every workload and print each metric by name with its unit.

    python3 bench/report.py [--seed 1] [--seconds S] [--out FILE]
    python3 bench/report.py --spread 10 [--out FILE]

The first form runs bench/run.py once untraced and once traced per
workload, each in its own process so that peak_rss_mb belongs to one
workload.  It prints the end-to-end metrics, the per-layer table with the
end-to-end metric each layer should move, the tracing overhead, and the
benchmark's standing predictions.  `--out` also writes the numbers and the
environment as JSON.

The second form makes untraced runs of every workload on seeds 1..N and
prints, per end-to-end metric, the median and the quartile spread as a
share of the median next to the metric's bound; it fails if any spread is
over its bound.  `--out` writes every value as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from layers import END_TO_END, PER_LAYER, TOL_METHODS  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
# How far the layer self times of a traced operation may stray from its
# untraced partner's wall time, in either direction.  A wrapper costs about
# 1 us a span: 0.2% of nt-n100's operation (1.5k spans), 2-3% of fo-n100's
# (9k) and replay-n10's (25k).  On a shared two-CPU host, traced over
# untraced wall time of adjacent operations had a quartile spread of 8-22%,
# so the median over a 30 s run's pairs moves by about 4% from noise alone
# and cannot resolve 1%.
TRACE_LIMIT_PCT = 10.0


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} trace={trace} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    result = json.loads(lines[-1])
    result["notes"] = [ln[2:] for ln in lines[:-1]]
    return result


def value(result: dict, name: str) -> float:
    return result["metrics"][name]["value"]


def report(args) -> int:
    results = {}
    for w in WORKLOADS:
        results[w] = {"end_to_end": run(w, args.seed, args.seconds, 0),
                      "per_layer": run(w, args.seed, args.seconds, 1)}
    env = next(n[4:] for n in results[WORKLOADS[0]]["end_to_end"]["notes"]
               if n.startswith("env "))
    print(f"environment: {env}")
    print(f"seed {args.seed}, {args.seconds:g} s per run\n")

    cols = "".join(f"{w:>16s}" for w in WORKLOADS)
    print(f"{'end-to-end metric':36s}{'unit':>10s}{cols}")
    for name, unit, better, bound in END_TO_END:
        cells = "".join(f"{value(results[w]['end_to_end'], name):16.6g}"
                        for w in WORKLOADS)
        print(f"{name:36s}{unit:>10s}{cells}   {better} is better, bound {bound}")
    for kind in ("end_to_end", "per_layer"):
        cells = "".join(f"{results[w][kind]['failed']:>9d}/{results[w][kind]['attempted']:<6d}"
                        for w in WORKLOADS)
        print(f"{'fail_rate (' + kind + ' run)':36s}{'failed/n':>10s}{cells}")
    for w in WORKLOADS:
        for note in results[w]["end_to_end"]["notes"]:
            if note.startswith(("solve_s", "failure")):
                print(f"  {w}: {note}")

    print(f"\n{'per-layer metric (traced run)':36s}{'unit':>10s}{cols}   should move")
    for name, unit, _, moves in PER_LAYER:
        cells = "".join(f"{value(results[w]['per_layer'], name):16.6g}"
                        for w in WORKLOADS)
        print(f"{name:36s}{unit:>10s}{cells}   {moves}")

    print("\nwait time: not applicable; the network is simulated in-process, "
          "so no layer waits on another")
    print("\ntracing overhead (traced over untraced solve_s - 1, median of adjacent pairs):")
    for w in WORKLOADS:
        pl = results[w]["per_layer"]
        print(f"  {w}: {value(pl, 'trace.overhead_pct'):+.2f}% of untraced; layer self "
              f"times account for {value(pl, 'trace.accounted_pct'):.2f}% of untraced "
              f"solve_s")

    checks = []
    if "fo-n100" in results:
        checks.append(("algorithms.solve.calls is 0 on fo-n100",
                       value(results["fo-n100"]["per_layer"], "algorithms.solve.calls") == 0))
    if "nt-n100" in results:
        pl = results["nt-n100"]["per_layer"]
        checks.append(("algorithms.solve.ms >= half of traced solve_s on nt-n100",
                       value(pl, "algorithms.solve.ms") >= 500 * value(pl, "trace.solve_s")))
    for w, r in results.items():
        checks.append((f"no failed operation on {w}",
                       r["end_to_end"]["failed"] == 0 and r["per_layer"]["failed"] == 0))
        checks.append((f"layer self times account for untraced solve_s within "
                       f"{TRACE_LIMIT_PCT:g}% on {w}",
                       abs(value(r["per_layer"], "trace.accounted_pct") - 100)
                       <= TRACE_LIMIT_PCT))
        summed = sum(value(r["per_layer"], f"iters_to_tol.{m}")
                     for m in TOL_METHODS)
        checks.append((f"iters_to_tol repeats across the two runs on {w}",
                       summed == value(r["end_to_end"], "iters_to_tol")))
    print("\npredictions:")
    for text, ok in checks:
        print(f"  [{'ok' if ok else 'FAILED'}] {text}")

    if args.out:
        doc = {"environment": json.loads(env), "seed": args.seed,
               "seconds": args.seconds,
               "workloads": {w: {k: {"attempted": r[k]["attempted"],
                                     "failed": r[k]["failed"],
                                     "metrics": {m: v["value"]
                                                 for m, v in r[k]["metrics"].items()}}
                                 for k in ("end_to_end", "per_layer")}
                             for w, r in results.items()}}
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0 if all(ok for _, ok in checks) else 1


def spread(args) -> int:
    worst_ok = True
    values = {}
    for w in WORKLOADS:
        runs = [run(w, seed, args.seconds, 0) for seed in range(1, args.spread + 1)]
        values[w] = {name: [value(r, name) for r in runs] for name, *_ in END_TO_END}
        failed = sum(r["failed"] for r in runs)
        print(f"{w}: {args.spread} runs, {failed} failed operations")
        for name, unit, _, bound in END_TO_END:
            xs = values[w][name]
            q1, med, q3 = statistics.quantiles(xs, n=4)
            share = (q3 - q1) / med
            ok = share <= bound
            worst_ok &= ok
            print(f"  {name:16s} median {med:14.6g} {unit:6s} spread {share:7.2%} "
                  f"bound {bound:.2f} ({share / bound:5.1%} of it){'' if ok else '  OVER'}")
    if args.out:
        Path(args.out).write_text(json.dumps(values, indent=1) + "\n")
    return 0 if worst_ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"])
    ap.add_argument("--out", default=None, help="also write the numbers as JSON")
    ap.add_argument("--spread", type=int, default=0, metavar="N",
                    help="untraced runs on seeds 1..N; print quartile spreads")
    args = ap.parse_args(argv)
    return spread(args) if args.spread else report(args)


if __name__ == "__main__":
    sys.exit(main())
