"""Bit-identity guards for the small-block round.

The oracles, the band and Woodbury solves, the block trace metrics and
the round updates are written as np.matvec/np.vecmat products, in-place
sums and shifts through one view, each equal bit for bit to the batched
matmul, sum and slice expressions they replaced.  Those expressions are
kept here, frozen, and compared with np.array_equal on random logistic
families, so a NumPy or BLAS whose dispatch rounds the two forms apart
fails here under the function's name rather than as a moved crossing.
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


def same(name, got, frozen):
    assert np.array_equal(got, frozen), f"{name} rounds apart from its frozen form"


def frozen_sigmoid(fam, x):
    return expit(-((fam.labels[:, :, None] * fam.features) @ x[:, :, None])[:, :, 0])


def frozen_grad(fam, x, s):
    yf = fam.labels[:, :, None] * fam.features
    return fam.ridge * x - (s[:, None, :] @ yf)[:, 0, :]


def frozen_grad_curvature_total(fam, x):
    yf = fam.labels[:, :, None] * fam.features
    s = expit(-(yf @ x))
    return fam.reg * x - np.einsum("nm,nmp->p", s, yf), s * (1.0 - s)


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


def frozen_shift(prev, states, names):
    stacks = (np.array([getattr(s, name) for s in (prev, *states)]) for name in names)
    return [(both[:-1], both[1:]) for both in stacks]


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
    for got, frozen in zip(fam.grad_curvature_total(x[0]),
                           frozen_grad_curvature_total(fam, x[0])):
        same("grad_curvature_total", got, frozen)
    same("hess_blocks", fam.hess_blocks(curve), frozen_hess_blocks(fam, curve))
    same("hess_band", fam.hess_band(curve, eps), frozen_hess_band(fam, curve, eps))
    same("reg_solve", alg.reg_solve(fam, curve, eps, rhs),
         frozen_reg_solve(fam, curve, eps, rhs))

    q, g = (rng.standard_normal((rounds, n, p)) for _ in range(2))
    assert alg.conservation_residuals(q, g) == frozen_conservation_residuals(q, g)

    names = ("x", "grad")
    states = [SimpleNamespace(x=a, grad=b) for a, b in zip(q, g)]
    for got, frozen in zip(harness._shift(states[0], states[1:], names),
                           frozen_shift(states[0], states[1:], names)):
        for name, a, b in zip(("_shift before", "_shift after"), got, frozen):
            same(name, a, b)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 12), m=st.integers(1, 12), p=st.integers(1, 12),
       alpha=st.floats(0.01, 5.0), seed=st.integers(0, 2 ** 16))
def test_round_updates_match_frozen_forms(n, m, p, alpha, seed):
    # nt_step's and gt_step's sums in place against their expressions, on
    # a random symmetric exchange (any matrix serves for rounding).
    fam = generate_logistic_data(n, m, p, reg=1e-2, seed=seed)
    rng = np.random.default_rng(seed)
    d = rng.standard_normal((n, n))
    d = d + d.T
    state = alg.nt_init(fam, alpha, 1.0)
    for _ in range(2):  # past x = dx = 0
        state = alg.nt_step(state, fam, d)
    nxt = alg.nt_step(state, fam, d)
    same("nt_step", nxt.q, state.q + (nxt.grad - state.grad)
         + state.alpha * (2.0 * nxt.dx - state.dx))

    state = alg.gt_init(fam, alpha)
    state = alg.gt_step(state, fam, d)
    nxt = alg.gt_step(state, fam, d)
    same("gt_step x", nxt.x, d @ state.x - state.alpha * state.y)
    same("gt_step y", nxt.y, d @ state.y + nxt.grad - state.grad)
