"""Bit-identity guards for the small-block round.

The oracles, the band and Woodbury solves, the block trace metrics and
the round updates are written as np.matvec/np.vecmat products, in-place
sums and stacks made by one concatenate, each equal bit for bit to the
batched matmul, sum and array expressions they replaced.  Those
expressions are kept here, frozen, and compared with np.array_equal on
random logistic families, so a NumPy or BLAS whose dispatch rounds the
two forms apart fails here under the function's name rather than as a
moved crossing.
"""

from types import SimpleNamespace
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

from newtrack import algorithms as alg
from newtrack import harness, objectives
from newtrack.objectives import generate_logistic_data, lower_band
from newtrack.topology import build_topology, metropolis_weights


def same(name, got, frozen):
    assert np.array_equal(got, frozen), f"{name} rounds apart from its frozen form"


def frozen_sigmoid(fam, x):
    return expit(-((fam.labels[:, :, None] * fam.features) @ x[:, :, None])[:, :, 0])


def frozen_grad(fam, x, s):
    yf = fam.labels[:, :, None] * fam.features
    return fam.ridge * x - (s[:, None, :] @ yf)[:, 0, :]


def frozen_hess_blocks(fam, curve):
    h = fam._ft @ (fam.features * curve[:, :, None])
    h.reshape(fam.n, -1)[:, ::fam.p + 1] += fam.ridge
    return h


def frozen_hess_band(fam, curve, eps):
    if fam._pairs is None:
        band = lower_band(frozen_hess_blocks(fam, curve))
    else:
        band = (curve[:, None, :] @ fam._pairs).reshape(fam.n, fam.p, fam.p)
        band[:, :, 0] += fam.ridge
    band[:, :, 0] += eps
    return band


def frozen_reg_solve(fam, curve, eps, rhs):
    if fam.m < fam.p:
        f = fam.features
        a = fam.ridge + eps
        k = fam.gram_band.copy()
        with np.errstate(divide="ignore", over="ignore"):
            k[:, :, 0] += a / curve
        w = alg.solve_spd_blocks(k, (f @ rhs[:, :, None])[:, :, 0])
        return (rhs - (w[:, None, :] @ f)[:, 0, :]) / a
    return alg.solve_spd_blocks(frozen_hess_band(fam, curve, eps), rhs)


def frozen_conservation_residuals(q, grad):
    rhs = grad.sum(axis=-2)
    return [a / (b + 1.0)
            for a, b in zip(alg.norms(q.sum(axis=-2) - rhs), alg.norms(rhs))]


def frozen_stack(states, names):
    return [np.array([getattr(s, name) for s in states]) for name in names]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 12), m=st.integers(1, 12), p=st.integers(1, 12),
       over_budget=st.booleans(), scale=st.floats(0.0, 20.0),
       log_eps=st.floats(-4.0, 1.0), rounds=st.integers(2, 6),
       seed=st.integers(0, 2 ** 16))
def test_rewritten_forms_match_frozen_forms(n, m, p, over_budget, scale, log_eps,
                                            rounds, seed):
    # Both sides of m < p (Woodbury against the band), and both sides of
    # PAIRS_BYTES (the cached sample products against hess_blocks).
    budget = 0 if over_budget else objectives.PAIRS_BYTES
    with mock.patch.object(objectives, "PAIRS_BYTES", budget):
        fam = generate_logistic_data(n, m, p, reg=1e-2, seed=seed)
        assert (fam._pairs is None) == over_budget
    rng = np.random.default_rng(seed)
    x = scale * rng.standard_normal((n, p))
    rhs = rng.standard_normal((n, p))
    eps = 10.0 ** log_eps

    s = fam._sigmoid(x)
    same("_sigmoid", s, frozen_sigmoid(fam, x))
    same("_grad", fam._grad(x, s), frozen_grad(fam, x, s))
    curve = s * (1.0 - s)
    same("hess_blocks", fam.hess_blocks(curve), frozen_hess_blocks(fam, curve))
    same("hess_band", fam.hess_band(curve, eps), frozen_hess_band(fam, curve, eps))
    same("reg_solve", alg.reg_solve(fam, curve, eps, rhs),
         frozen_reg_solve(fam, curve, eps, rhs))

    q, g = (rng.standard_normal((rounds, n, p)) for _ in range(2))
    assert alg.conservation_residuals(q, g) == frozen_conservation_residuals(q, g)

    names = ("x", "grad")
    states = [SimpleNamespace(x=a, grad=b) for a, b in zip(q, g)]
    for block in (states, states[:1]):
        for got, frozen in zip(harness._stack(block, names), frozen_stack(block, names)):
            same("_stack", got, frozen)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 12), m=st.integers(1, 12), p=st.integers(1, 12),
       alpha=st.floats(0.01, 5.0), seed=st.integers(0, 2 ** 16))
def test_round_updates_match_frozen_forms(n, m, p, alpha, seed):
    # nt_step's sums in place against their expressions, and those of its
    # gradient-tracking branch, on a random symmetric exchange put into each
    # start state (any matrix serves for rounding).
    fam = generate_logistic_data(n, m, p, reg=1e-2, seed=seed)
    rng = np.random.default_rng(seed)
    d = rng.standard_normal((n, n))
    d = d + d.T
    mix = metropolis_weights(build_topology("complete", n))
    state = alg.nt_init(fam, mix, alpha, 1.0)._replace(d=d)
    for _ in range(2):  # past x = dx = 0
        state = alg.nt_step(state, fam)
    nxt = alg.nt_step(state, fam)
    same("nt_step", nxt.q, state.q + (nxt.grad - state.grad)
         + state.alpha * (2.0 * nxt.dx - state.dx))

    state = alg.gt_init(fam, mix, alpha)._replace(d=d)
    for _ in range(2):  # past x = dx = 0
        state = alg.gt_step(state, fam)
    nxt = alg.gt_step(state, fam)
    same("gt_step", nxt.q, state.q + (nxt.grad - state.grad)
         + state.alpha * (2.0 * nxt.dx - state.dx - state.dx + d @ state.dx))
