"""Metric catalogue, trace targets, and per-layer metrics from spans.

Each metric carries the prediction written before any optimisation: the
end-to-end metric it should move and on which workload.  BENCHMARK.json
repeats the names, units, directions and bounds; a self-test keeps the two
in step.
"""

from __future__ import annotations

from collections import defaultdict

from tracer import Span, self_times

# (name, unit, better, bound): bound is the share of the parent's median by
# which a metric may worsen before a change is rejected.  Every workload must
# report every end-to-end metric, none may read 0, and each must repeat
# within its bound across runs.  So the failure share travels as the
# result's attempted/failed counts, check_s (replay-n10 only) is a layer
# metric, and so are the raw wall times solve_s, iters_per_s and
# setup_wall_s: on a shared host they drift with other tenants' load, which
# solve_rel and setup_s divide out by timing a reference kernel.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("solve_rel", "ratio", "lower", 0.2),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("iters_to_tol", "count", "lower", 0.2),
    ("scalars_to_tol", "count", "lower", 0.2),
)

METHODS = ("nt", "gt", "extra", "dlm", "pd", "sq")
TOL_METHODS = ("nt", "gt", "extra", "dlm")

# (name, unit, better, prediction)
PER_LAYER = (
    ("topology.build_ms", "ms", "lower",
     "setup_s, mostly replay-n10: four networks plus the check's rebuild"),
    ("topology.spectral_ms", "ms", "lower", "setup_s, mostly replay-n10"),
    ("objectives.data_ms", "ms", "lower", "setup_s"),
    ("objectives.bounds_ms", "ms", "lower", "setup_s"),
    ("objectives.grad_stack.ms", "ms", "lower", "solve_s on fo-n100"),
    ("objectives.grad_stack.calls", "count", "lower", "solve_s on fo-n100"),
    ("objectives.grad_stack.per_iter", "calls/iter", "lower", "solve_s on fo-n100"),
    ("objectives.grad_stack.metric_calls", "count", "lower",
     "solve_s on nt-n100: calls made by the harness metric push"),
    ("objectives.hess_stack.ms", "ms", "lower", "solve_s on nt-n100"),
    ("objectives.hess_stack.calls", "count", "lower", "solve_s on nt-n100"),
    ("algorithms.solve.ms", "ms", "lower", "solve_s on nt-n100 and replay-n10"),
    ("algorithms.solve.calls", "count", "lower",
     "solve_s on nt-n100 and replay-n10; 0 on fo-n100"),
    ("algorithms.solve.blocks", "count", "lower", "solve_s on nt-n100 and replay-n10"),
    ("algorithms.solve.gflops_per_s", "GFLOP/s", "higher",
     "computed: n(p^3/3 + 2p^2) per call over solve time; solve_s on nt-n100"),
    *((f"algorithms.step.{m}.{kind}", unit, "lower",
       f"solve_s where {m} runs" if m not in ("pd", "sq") else "check_s on replay-n10")
      for m in METHODS for kind, unit in (("self_ms", "ms"), ("calls", "count"))),
    ("algorithms.init_ms", "ms", "lower", "setup_s"),
    ("algorithms.reference_ms", "ms", "lower", "setup_s"),
    ("analysis.certificate_ms", "ms", "lower", "setup_s"),
    ("analysis.check_ms", "ms", "lower", "check_s on replay-n10"),
    ("harness.driver_self_ms", "ms", "lower",
     "solve_s on fo-n100: metric push, remainder einsum, trace appends"),
    ("harness.driver_self_ms_per_iter", "ms/iter", "lower", "solve_s on fo-n100"),
    ("harness.check_self_ms", "ms", "lower", "check_s on replay-n10"),
    ("harness.check_rerun_ms", "ms", "lower", "check_s on replay-n10"),
    ("harness.sweep_self_ms", "ms", "lower", "solve_s on replay-n10"),
    ("harness.io_ms", "ms", "lower", "solve_s and check_s on replay-n10"),
    ("harness.record_bytes", "bytes", "lower", "harness.io_ms on replay-n10"),
    ("harness.useful_iter_ratio", "ratio", "higher",
     "iters_per_s once runs stop at the precision floor"),
    ("cli.self_ms", "ms", "lower", "solve_s on replay-n10"),
    ("bench.self_ms", "ms", "lower", "nothing: benchmark glue inside the timed region"),
    ("solve_s", "s", "lower", "untraced median wall time of one operation"),
    ("iters_per_s", "1/s", "higher", "method-iterations recorded per second of solve_s"),
    ("check_s", "s", "lower", "wall time of the check step on replay-n10 (untraced)"),
    ("ref_ms", "ms", "lower", "reference kernel: moves with the host, never with the program"),
    ("setup_wall_s", "s", "lower", "untraced median wall time of one set-up; setup_s unscaled"),
    *((f"iters_to_tol.{m}", "count", "lower", "exact; must not move")
      for m in TOL_METHODS),
    ("trace.solve_s", "s", "lower", "traced median of solve_s"),
    ("trace.overhead_pct", "%", "lower",
     "traced minus untraced median solve_s, as a share of untraced"),
    ("trace.accounted_pct", "%", "higher",
     "layer self times of a traced operation over its untraced partner's wall time"),
)


def targets(nt) -> list[tuple]:
    """Trace targets, each wrapped where its caller resolves it.

    The harness imports topology and data helpers into its own namespace,
    and the CLI imports the harness entry points into its own, so those
    are wrapped on the importing module.  Calls that cannot be wrapped
    (W @ x, the metric push's norms) fall into their caller's self time.
    """
    h, c, a, an = nt.harness, nt.cli, nt.algorithms, nt.analysis
    fam = nt.objectives.LogisticFamily

    def solve_meta(blocks, rhs):
        return {"n": blocks.shape[0], "p": blocks.shape[1]}

    return [
        (h, "build_topology", "topology.build"),
        (h, "metropolis_weights", "topology.build"),
        (h, "spectral_stats", "topology.spectral"),
        (h, "generate_logistic_data", "objectives.data"),
        (h, "convexity_bounds", "objectives.bounds"),
        (fam, "grad_stack", "objectives.grad_stack"),
        (fam, "hess_stack", "objectives.hess_stack"),
        (a, "solve_spd_blocks", "algorithms.solve", solve_meta),
        (a, "centralized_reference", "algorithms.reference"),
        *((a, f"{m}_step", f"algorithms.step.{m}") for m in METHODS),
        *((a, f"{m}_init", "algorithms.init") for m in METHODS),
        (an, "rate_certificate", "analysis.certificate"),
        (an, "consensus_penalty_matrix", "analysis.certificate"),
        (an, "dual_optimum", "analysis.certificate"),
        (an, "lemma_remainder_check", "analysis.check"),
        (an, "stationarity_identity_check", "analysis.check"),
        (an, "contraction_check", "analysis.check"),
        (h, "run_experiment", "harness.driver"),
        (c, "run_experiment", "harness.driver"),
        (c, "run_checks", "harness.check"),
        (c, "topology_sweep", "harness.sweep"),
        (c, "write_outputs", "harness.io"),
        (c, "load_record", "harness.io"),
        (c, "main", "cli"),
    ]


ROOT = "op"


def _in_ops(spans: list[Span]):
    """(span, self time) of each span under a root named ROOT."""
    root = [0] * len(spans)
    for i, s in enumerate(spans):  # parents precede children
        root[i] = i if s.parent is None else root[s.parent]
    for i, t in enumerate(self_times(spans)):
        if spans[root[i]].name == ROOT:
            yield spans[i], t


def layer_ns(spans: list[Span]) -> int:
    """Self time of every layer in one operation's spans, glue excluded."""
    return sum(t for s, t in _in_ops(spans) if s.name != ROOT)


def from_spans(ops: list[list[Span]], iters: int) -> dict:
    """Per-operation layer metrics from the spans of traced operations.

    `ops` holds one span list per traced operation, whose root span is
    named ROOT; spans under any other root are ignored.  `iters` is the
    number of method-iterations all traced operations recorded together.
    """
    n_ops = len(ops)
    self_ns = defaultdict(int)
    calls = defaultdict(int)
    grad_metric_calls = rerun_ns = blocks = 0
    flops = 0.0
    for spans in ops:
        for s, t in _in_ops(spans):
            self_ns[s.name] += t
            calls[s.name] += 1
            parent = spans[s.parent].name if s.parent is not None else None
            if s.name == "objectives.grad_stack" and parent == "harness.driver":
                grad_metric_calls += 1
            if s.name == "harness.driver" and parent == "harness.check":
                rerun_ns += s.dur
            if s.name == "algorithms.solve":
                n, p = s.meta["n"], s.meta["p"]
                blocks += n
                flops += n * (p ** 3 / 3.0 + 2.0 * p ** 2)

    def ms(name):
        return self_ns[name] / 1e6 / n_ops

    out = {
        "topology.build_ms": ms("topology.build"),
        "topology.spectral_ms": ms("topology.spectral"),
        "objectives.data_ms": ms("objectives.data"),
        "objectives.bounds_ms": ms("objectives.bounds"),
        "objectives.grad_stack.ms": ms("objectives.grad_stack"),
        "objectives.grad_stack.calls": calls["objectives.grad_stack"] / n_ops,
        "objectives.grad_stack.per_iter": calls["objectives.grad_stack"] / iters,
        "objectives.grad_stack.metric_calls": grad_metric_calls / n_ops,
        "objectives.hess_stack.ms": ms("objectives.hess_stack"),
        "objectives.hess_stack.calls": calls["objectives.hess_stack"] / n_ops,
        "algorithms.solve.ms": ms("algorithms.solve"),
        "algorithms.solve.calls": calls["algorithms.solve"] / n_ops,
        "algorithms.solve.blocks": blocks / n_ops,
        "algorithms.solve.gflops_per_s":
            flops / self_ns["algorithms.solve"] if self_ns["algorithms.solve"] else 0.0,
    }
    for m in METHODS:
        out[f"algorithms.step.{m}.self_ms"] = ms(f"algorithms.step.{m}")
        out[f"algorithms.step.{m}.calls"] = calls[f"algorithms.step.{m}"] / n_ops
    out.update({
        "algorithms.init_ms": ms("algorithms.init"),
        "algorithms.reference_ms": ms("algorithms.reference"),
        "analysis.certificate_ms": ms("analysis.certificate"),
        "analysis.check_ms": ms("analysis.check"),
        "harness.driver_self_ms": ms("harness.driver"),
        "harness.driver_self_ms_per_iter": self_ns["harness.driver"] / 1e6 / iters,
        "harness.check_self_ms": ms("harness.check"),
        "harness.check_rerun_ms": rerun_ns / 1e6 / n_ops,
        "harness.sweep_self_ms": ms("harness.sweep"),
        "harness.io_ms": ms("harness.io"),
        "cli.self_ms": ms("cli"),
        "bench.self_ms": ms(ROOT),
    })
    return out
