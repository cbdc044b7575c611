"""The algorithms read a family through its protocol alone: n, p, digest,
grad_stack, grad_curvature, hess_blocks and local_solve.

DiagonalFamily below implements that protocol and nothing more, for
per-node diagonal quadratics whose local systems it solves as n p blocks
of size 1.  Every method, the primal-dual form and the reference solve
run on it unchanged and follow a QuadraticFamily built on the same
diagonal Hessians.
"""

import hashlib

import numpy as np
import pytest

from newtrack import algorithms as alg
from newtrack.objectives import QuadraticFamily
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


PROTOCOL = {"n", "p", "digest", "grad_stack", "grad_curvature", "hess_blocks",
            "local_solve"}


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
