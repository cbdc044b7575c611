"""The algorithms read a family through its protocol alone: n, p, digest,
grad_stack, grad_curvature, hess_blocks, local_solve and bounds.

DiagonalFamily below implements that protocol and nothing more, for
per-node diagonal quadratics whose local systems it solves as n p blocks
of size 1.  Every method, the primal-dual form, the reference solve and
the harness's run and replay checks run on it unchanged and follow a
QuadraticFamily built on the same diagonal Hessians.
"""

import hashlib

import numpy as np
import pytest

from newtrack import algorithms as alg
from newtrack import harness
from newtrack.harness import AlgorithmSpec, DataSpec, RunConfig, TopologySpec
from newtrack.objectives import ObjectiveBounds, QuadraticFamily, convexity_bounds
from newtrack.topology import (build_topology, metropolis_weights,
                               spectral_stats)


class DiagonalFamily:
    """Per-node quadratics x' diag(a_i) x / 2 + b_i' x, a_i > 0: a and b of
    shape (n, p)."""

    def __init__(self, a: np.ndarray, b: np.ndarray):
        self.a, self.b = a, b
        self.n, self.p = b.shape

    def digest(self) -> str:
        return "sha256:" + hashlib.sha256(self.a.tobytes() + self.b.tobytes()).hexdigest()

    def grad_stack(self, x):
        return self.a * x + self.b

    def grad_curvature(self, x):
        return self.grad_stack(x), None

    def hess_blocks(self, curve):
        return self.a[:, :, None] * np.eye(self.p)

    def local_solve(self, curve, eps, rhs, solve_blocks):
        # Each diagonal entry a band of its own: n p blocks of size 1.
        band = (self.a + eps).reshape(-1, 1, 1)
        return solve_blocks(band, rhs.reshape(-1, 1)).reshape(self.n, self.p)

    def bounds(self):
        return ObjectiveBounds(mu=float(self.a.min()), lip=float(self.a.max()))


PROTOCOL = {"n", "p", "digest", "grad_stack", "grad_curvature", "hess_blocks",
            "local_solve", "bounds"}


def diagonal_pair(n=6, p=3, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.uniform(0.5, 2.0, size=(n, p))
    b = rng.standard_normal((n, p))
    return DiagonalFamily(a, b), QuadraticFamily(a[:, :, None] * np.eye(p), b)


def test_diagonal_family_holds_the_protocol_alone():
    diag, _ = diagonal_pair()
    public = {name for name in dir(diag) if not name.startswith("_")}
    assert public - {"a", "b"} == PROTOCOL


@pytest.mark.parametrize("name", ["nt", "gt", "extra", "dlm"])
def test_q_form_methods_run_on_the_protocol_alone(name):
    diag, quad = diagonal_pair()
    graph = build_topology("cycle", diag.n)
    mix = metropolis_weights(graph)
    start = {"nt": lambda fam: alg.nt_init(fam, mix, 0.5, 2.0),
             "gt": lambda fam: alg.gt_init(fam, mix, 0.1),
             "extra": lambda fam: alg.extra_init(fam, mix, 0.1),
             "dlm": lambda fam: alg.dlm_init(fam, graph, 0.1, 1.0)}[name]
    got, want = start(diag), start(quad)
    for _ in range(30):
        got, want = alg.nt_step(got, diag), alg.nt_step(want, quad)
        assert np.max(np.abs(got.x - want.x)) <= 1e-12
        assert np.max(np.abs(got.q - want.q)) <= 1e-12
    assert np.max(np.abs(got.x)) > 0.1  # the run moved


def test_primal_dual_form_and_reference_run_on_the_protocol_alone():
    diag, quad = diagonal_pair()
    mix = metropolis_weights(build_topology("cycle", diag.n))
    root = spectral_stats(mix).root
    got, want = (alg.pd_init(fam, mix, root, 0.5, 2.0) for fam in (diag, quad))
    for _ in range(30):
        got, want = alg.pd_step(got, diag), alg.pd_step(want, quad)
        assert np.max(np.abs(got.x - want.x)) <= 1e-12
        assert np.max(np.abs(got.v - want.v)) <= 1e-12

    (x_got, g_got), (x_want, g_want) = (alg.centralized_reference(fam)
                                        for fam in (diag, quad))
    assert np.max(np.abs(x_got - x_want)) <= 1e-12
    assert np.max(np.abs(g_got - g_want)) <= 1e-12
    # The diagonal optimum in closed form: -sum b / sum a, per coordinate.
    assert np.max(np.abs(x_got + diag.b.sum(0) / diag.a.sum(0))) <= 1e-12


def test_a_run_and_its_replay_checks_read_the_protocol_alone():
    # The run's certificate reads the family's own bounds, so a family the
    # library does not know runs every method, and passes every replay
    # check (nt's certificate feasible at eps 35), beside its
    # QuadraticFamily twin.  The config's data spec is not read: the
    # objective is given.
    diag, quad = diagonal_pair()
    config = RunConfig(
        name="diag", topology=TopologySpec(kind="cycle", n=diag.n),
        data=DataSpec(family="quadratic", p=diag.p),
        algorithms=(AlgorithmSpec("nt", alpha=0.1, eps=35.0), AlgorithmSpec("gt", alpha=0.1),
                    AlgorithmSpec("extra", alpha=0.1),
                    AlgorithmSpec("dlm", alpha=0.1, eps=1.0)),
        iters=60)
    net = harness.build_network(config.topology)
    got, want = (harness.Objective(fam, fam.digest(), convexity_bounds(fam))
                 for fam in (diag, quad))
    assert got.bounds.mu == pytest.approx(want.bounds.mu, rel=1e-12)
    assert got.bounds.lip == pytest.approx(want.bounds.lip, rel=1e-12)
    records = [harness._run(config, net, obj) for obj in (got, want)]
    for name in records[0].traces:
        assert np.allclose(records[0].traces[name].rel_error,
                           records[1].traces[name].rel_error, rtol=0, atol=1e-12), name
    checks = harness._replay_checks(records[0], net, got, window=100)
    assert set(checks) == {"conservation", "equivalence", "remainder_bound",
                           "stationarity_identity", "contraction", "tracker_mean"}
    assert all(entry["passed"] for entry in checks.values()), checks
