#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload nt-n100 --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the library is imported from its `src/`.
The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; lines before it, each starting with
`#`, describe the run for a human.  With `--trace 0` the metrics are the
end-to-end ones, measured with no tracing.  Times are measured against a
reference kernel timed on both sides of each operation: operation time as the
ratio solve_rel, set-up time as setup_s, the ratio scaled to seconds on a
host where the kernel takes REF_NOMINAL_S.  With `--trace 1` untraced and
traced operations alternate, and the metrics are the per-layer ones, raw
wall times included.

`--seed` sets the data seed.  The topology seed stays at the preset's
unless `--seed-topology` is given: the published fig1 step sizes diverge
on about one random 10-node network in five.
"""

import os
import sys

# Fixed here, before numpy loads BLAS: with the default two BLAS threads on
# a two-CPU machine, 600 nt-n100 iterations spread 41% across repeats; with
# one thread, 9%.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import NamedTuple  # noqa: E402

import numpy as np  # noqa: E402
from scipy.linalg import cho_factor  # noqa: E402

import layers  # noqa: E402
from tracer import Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUPS_PER_OP = 3  # set-ups timed before each operation; setup_s is their median
MIN_OPS = 3        # operations attempted per timed phase, whatever --seconds says
REF_REPS = 3       # reference-kernel runs on each side of an operation; the fastest counts
# setup_s is set-up time in seconds on a host where the reference kernel
# takes this long: about its time on an unloaded two-CPU x86-64 VM, where it
# took 7.2-11.3 ms as other tenants' load came and went.  Raw set-up wall
# time followed that load: its nt-n100 median rose 29% between two sets of
# ten runs minutes apart, past any bound a later change could be held to.
REF_NOMINAL_S = 0.0075


class Sample(NamedTuple):
    elapsed: float  # wall time of the operation (s)
    ref: float      # wall time of the reference kernel, mean of just before and after (s)
    result: object  # workloads.OpResult
    setups: tuple   # wall times of the set-ups timed just before it (s)


def reference_kernel(features) -> None:
    """A fixed computation that is the benchmark's own, never the library's.

    It mixes what the workloads spend their time on: small-matrix
    factorizations called from Python and batched einsums over (100, 10, 40)
    arrays.  Timing it on both sides of each operation measures how fast the
    shared host runs at that moment; no change to the program moves it.
    """
    x = np.zeros((features.shape[0], features.shape[2]))
    eye = 1e-2 * np.eye(features.shape[2])
    for _ in range(4):
        z = np.einsum("nmp,np->nm", features, x)
        curve = (0.2 + 0.05 * np.tanh(z))[:, :, None]
        h = features.transpose(0, 2, 1) @ (features * curve) + eye
        for block in h:
            cho_factor(block, lower=True, check_finite=False)
        x += 0.01


def _import_library():
    """Import newtrack from this checkout's src/, never from elsewhere."""
    pkg = ROOT / "src" / "newtrack"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"error: {pkg} not found; run from a repository checkout")
    sys.path.insert(0, str(ROOT / "src"))
    import newtrack
    if Path(newtrack.__file__).resolve().parent != pkg.resolve():
        raise SystemExit(f"error: imported newtrack from {newtrack.__file__}, not {pkg}")
    return newtrack


def git_revision() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import scipy
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_build = " ".join(str(blas.get(k, "")) for k in
                              ("name", "version", "openblas configuration")).strip()
    except (TypeError, KeyError):
        blas_build = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas_build,
            "blas_threads": int(BLAS_THREADS), "cpu_count": os.cpu_count(),
            "machine": platform.machine(), "git_revision": git_revision()}


def tail(samples: list) -> str:
    """Median and the highest percentile with at least ten samples beyond it."""
    xs = sorted(samples)
    n = len(xs)
    text = f"median {statistics.median(xs):.4f} s over {n} samples"
    if n > 20:
        return text + f", p{100 * (n - 10) // n} {xs[n - 11]:.4f} s"
    return text + f", max {xs[-1]:.4f} s (no tail percentile: needs over 20 samples)"


class Runner:
    """Counts every attempted operation; a failed one keeps its sample."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.first_to_tol = None
        rng = np.random.default_rng(0)
        self.ref_features = rng.standard_normal((100, 10, 40)) / np.sqrt(40)

    def ref_time(self) -> float:
        """Fastest of REF_REPS timed runs of the reference kernel."""
        times = []
        for _ in range(REF_REPS):
            tic = time.perf_counter()
            reference_kernel(self.ref_features)
            times.append(time.perf_counter() - tic)
        return min(times)

    def _fail(self, message: str) -> None:
        self.failed += 1
        self.failures.append(message)

    def setup(self) -> float | None:
        """Wall time of one zero-iteration run of the workload's configs."""
        self.attempted += 1
        tic = time.perf_counter()
        try:
            self.workload.setup()
        except Exception as err:  # noqa: BLE001 - counted, reported below
            self._fail(f"setup raised {err!r}")
            return None
        return time.perf_counter() - tic

    def ops(self, seconds: float, tracer=None, min_ops: int = MIN_OPS,
            setups: int = 0) -> list:
        """Run operations until `seconds` pass; returns their Samples.

        `setups` set-ups follow the reference kernel and precede each
        operation, so that both are timed against the same kernel runs.
        The kernel is timed on both sides of the operation: on a shared
        host, bracketing halved the quartile spread of replay-n10's
        solve_rel over five seeds, against timing it only before.
        """
        samples = []
        attempts = 0
        deadline = time.perf_counter() + seconds
        while attempts < min_ops or time.perf_counter() < deadline:
            attempts += 1
            ref_before = self.ref_time()
            setup_times = tuple(t for t in (self.setup() for _ in range(setups))
                                if t is not None)
            self.attempted += 1
            gc.collect()  # start every operation from the same collector state
            try:
                tic = time.perf_counter()
                if tracer is None:
                    raw = self.workload.op()
                else:
                    with tracer.span(layers.ROOT):
                        raw = self.workload.op()
                elapsed = time.perf_counter() - tic
                ref = (ref_before + self.ref_time()) / 2.0
                result = self.workload.collect(raw)
            except Exception as err:  # noqa: BLE001 - counted, reported below
                self._fail(f"operation raised {err!r}")
                continue
            to_tol = result.to_tol
            if self.first_to_tol is None:
                self.first_to_tol = to_tol
            elif to_tol != self.first_to_tol:
                result.failures.append(f"iters_to_tol changed: {to_tol} vs {self.first_to_tol}")
            if result.failures:
                self._fail("; ".join(result.failures))
            samples.append(Sample(elapsed, ref, result, setup_times))
        return samples


def end_to_end(samples) -> dict:
    # solve_rel divides each operation's wall time by the reference kernel's
    # around it.  On a shared two-CPU host the wall time of nt-n100 drifted
    # by up to 60% between runs minutes apart (fastest operation 0.92-1.60 s
    # over six seeds), while the ratio stayed within 130-141.  setup_s is
    # divided the same way, then scaled to seconds.
    first = samples[0].result
    to_tol = first.to_tol.values()
    return {
        "setup_s": REF_NOMINAL_S * statistics.median(
            t / s.ref for s in samples for t in s.setups),
        "solve_rel": statistics.median(s.elapsed / s.ref for s in samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "iters_to_tol": sum(i for i, _ in to_tol),
        "scalars_to_tol": sum(s for _, s in to_tol),
    }


def per_layer(pairs, spans) -> dict:
    """Per-layer metrics from (untraced, traced) Samples taken back to back
    and, for each pair, the spans of its traced operation.

    Tracing overhead and span coverage compare each traced operation with
    its untraced partner, so that drift in host speed cancels.  The
    coverage sums every layer's self time in a traced operation, benchmark
    glue excluded, over the untraced partner's wall time: a layer that lost
    its wrapper still counts, but tracing cost shows as excess over 100%.
    """
    untraced = [u for u, _ in pairs]
    traced = [t for _, t in pairs]
    first = traced[0].result
    out = layers.from_spans(spans, iters=sum(s.result.iterations for s in traced))
    to_tol = first.to_tol
    solve_s = statistics.median(s.elapsed for s in untraced)
    layer_s = [layers.layer_ns(op) / 1e9 for op in spans]
    out.update({
        "harness.record_bytes": statistics.mean(s.result.record_bytes for s in traced),
        "harness.useful_iter_ratio": sum(i for i, _ in to_tol.values()) / first.iterations,
        "solve_s": solve_s,
        "iters_per_s": first.iterations / solve_s,
        "check_s": statistics.median(s.result.check_s for s in untraced),
        "ref_ms": 1e3 * statistics.median(s.ref for s in untraced),
        "setup_wall_s": statistics.median(t for s in untraced for t in s.setups),
        "trace.solve_s": statistics.median(s.elapsed for s in traced),
        "trace.overhead_pct": 100.0 * statistics.median(
            t.elapsed / u.elapsed - 1.0 for u, t in pairs),
        "trace.accounted_pct": 100.0 * statistics.median(
            lay / u.elapsed for lay, (u, _) in zip(layer_s, pairs, strict=True)),
    })
    for m in layers.TOL_METHODS:
        out[f"iters_to_tol.{m}"] = to_tol.get(m, (0, 0))[0]
    return out


def parse_args(argv=None):
    import workloads
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, default=0, help="data seed")
    ap.add_argument("--seed-topology", type=int, default=None,
                    help="topology seed (default: the preset's)")
    ap.add_argument("--seconds", type=float, default=30.0,
                    help="measuring time, shared by both kinds of operation when tracing")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    newtrack = _import_library()
    args = parse_args(argv)
    import workloads

    workload = workloads.make(args.workload, args.seed_topology, args.seed,
                              ROOT / ".bench_out")
    runner = Runner(workload)
    try:
        runner.ops(0.0, min_ops=1, setups=1)  # warm-up: gated, not timed
        if args.trace:
            # Pair each traced operation with an untraced one next to it, so
            # that the tracing overhead is not confounded with drift in
            # machine speed; which of the two runs first alternates.
            tracer, targets = Tracer(), layers.targets(newtrack)
            pairs, spans = [], []
            rounds = 0
            deadline = time.perf_counter() + args.seconds
            while rounds < MIN_OPS or time.perf_counter() < deadline:
                if rounds % 2 == 0:
                    untraced = runner.ops(0.0, min_ops=1, setups=1)
                with tracer.installed(targets):
                    traced = runner.ops(0.0, tracer, min_ops=1)
                op_spans = tracer.take()
                if rounds % 2 == 1:
                    untraced = runner.ops(0.0, min_ops=1, setups=1)
                if untraced and traced:
                    pairs.append((untraced[0], traced[0]))
                    spans.append(op_spans)
                rounds += 1
        else:
            samples = runner.ops(args.seconds, setups=SETUPS_PER_OP)
    finally:
        workload.close()

    print(f"# workload {args.workload}: seed_data {args.seed}, seed_topology "
          f"{'preset' if args.seed_topology is None else args.seed_topology}, "
          f"seconds {args.seconds:g}, trace {args.trace}")
    print("# env " + json.dumps(environment()))
    print(f"# fail_rate {runner.failed}/{runner.attempted} operations failed")
    for message in runner.failures[:5]:
        print("# failure: " + message)
        print(f"{args.workload}: {message}", file=sys.stderr)
    try:
        if args.trace:
            metrics = per_layer(pairs, spans)
            print(f"# untraced solve_s {tail([u.elapsed for u, _ in pairs])}")
            print(f"# traced solve_s {tail([t.elapsed for _, t in pairs])}")
            catalogue = layers.PER_LAYER
        else:
            metrics = end_to_end(samples)
            setups = [t for s in samples for t in s.setups]
            print(f"# solve_s {tail([s.elapsed for s in samples])}")
            print(f"# reference kernel {1e3 * statistics.median(s.ref for s in samples):.3f} ms"
                  " median around each operation")
            print(f"# setup_s median of {len(setups)} zero-iteration runs, each over the"
                  f" reference kernel around its operation; wall time {tail(setups)}")
            catalogue = layers.END_TO_END
    except (statistics.StatisticsError, IndexError):
        print("error: no operation completed", file=sys.stderr)
        return 1
    units = {name: unit for name, unit, *_ in catalogue}
    if set(metrics) != set(units):
        raise RuntimeError(f"metric set mismatch: {sorted(set(metrics) ^ set(units))}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name, *_ in catalogue},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
