"""Iteration rules: hand-computed scalar traces, independent plain-loop
reimplementations, formulation equivalence, fixed points, conservation.

The oracle implementations below use explicit per-node Python loops and
np.linalg.solve so that they share no vectorized code path with the
module under test.  The curvature-tracked oracle is the paper's canonical
two-recursion form, which rebuilds the tracked direction from the
previous Hessian, and the EXTRA and DLM oracles are their published
two-step recursions; the module under test carries all three as q-forms.
A q-form step takes the operator D of its method: I - W for nt and EXTRA,
the graph Laplacian for DLM.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.linalg import cho_factor, cho_solve
from scipy.linalg.lapack import dpbsv
from scipy.special import expit

from newtrack import harness, objectives
from newtrack.algorithms import (GradientTrackingState, NewtonTrackingState,
                                 centralized_reference, conservation_residuals,
                                 dlm_init, dlm_step, extra_init, extra_step,
                                 gt_init, gt_step, norm, nt_init, nt_step,
                                 pd_init, pd_step, reg_solve, solve_spd_blocks)
from newtrack.harness import (AlgorithmSpec, DataSpec, RunConfig,
                              TopologySpec, run_experiment)
from newtrack.objectives import (LogisticFamily, QuadraticFamily,
                                 generate_logistic_data,
                                 generate_quadratic_set, lower_band)
from newtrack.topology import (build_topology, laplacian, metropolis_weights,
                               spectral_stats)
from oracles import node, optimum


def scalar_family(b=-1.0):
    # Single node, f(x) = x^2 / 2 + b x, optimum at -b.
    return QuadraticFamily(np.ones((1, 1, 1)), np.array([[b]]))


def cycle_setup(n=5, p=3, seed=0):
    fam = generate_quadratic_set(n=n, p=p, seed=seed)
    g = build_topology("cycle", n)
    mix = metropolis_weights(g)
    return fam, g, mix


def wide_logistic(n=6, m=3, p=7, seed=3):
    # Fewer samples than features per node (m < p): reg_solve's Woodbury path.
    return generate_logistic_data(n=n, m=m, p=p, reg=1e-3, seed=seed)


def dense_reg_solve(fam, x, eps, rhs):
    # Plain per-node solve against the stacked Hessian.
    h = fam.hess_stack(x)
    return np.array([np.linalg.solve(h[i] + eps * np.eye(fam.p), rhs[i])
                     for i in range(fam.n)])


def dense_curve_solve(fam, curve, eps, rhs):
    # Plain per-node solve against ridge I + F' diag(c) F + eps I, for any c.
    return np.array([np.linalg.solve((fam.ridge + eps) * np.eye(fam.p)
                                     + f.T @ (c[:, None] * f), r)
                     for f, c, r in zip(fam.features, curve, rhs)])


def slow_mix(w, arr):
    # Neighbor averaging with explicit loops (independent of W @ x).
    out = np.zeros_like(arr)
    for i in range(arr.shape[0]):
        for j in range(arr.shape[0]):
            out[i] += w[i, j] * arr[j]
    return out


# ---------------------------------------------------------------------------
# Curvature-tracked method: scalar trace and plain-loop oracle.
# ---------------------------------------------------------------------------

def test_scalar_halving_trace():
    # With A = 1, eps = 1, single node: H = 2 and the error halves each
    # step, so the iterates are 0, 0.5, 0.75, 0.875 toward x* = 1.
    fam = scalar_family(b=-1.0)
    d = np.zeros((1, 1))  # I - W of a single node
    st = nt_init(fam, alpha=1.0, eps=1.0)
    assert st.u[0, 0] == pytest.approx(-0.5, abs=1e-15)
    seen = [st.x[0, 0]]
    for _ in range(3):
        st = nt_step(st, fam, d)
        seen.append(st.x[0, 0])
    assert_allclose(seen, [0.0, 0.5, 0.75, 0.875], atol=1e-12)


def test_zero_gradient_start_stays_put():
    fam = scalar_family(b=0.0)
    st = nt_init(fam, alpha=1.0, eps=1.0)
    assert st.u[0, 0] == 0.0
    st = nt_step(st, fam, np.zeros((1, 1)))
    assert st.x[0, 0] == 0.0


def assert_nt_matches_plain_loop(fam, mix, alpha, eps):
    n, p, w = fam.n, fam.p, mix.w

    x = np.zeros((n, p))
    g = np.array([node(fam, i).grad(x[i]) for i in range(n)])
    h = np.array([node(fam, i).hess(x[i]) + eps * np.eye(p) for i in range(n)])
    u = np.array([np.linalg.solve(h[i], g[i]) for i in range(n)])

    st = nt_init(fam, alpha, eps)
    assert_allclose(st.u, u, atol=1e-13)
    for _ in range(50):
        x1 = x - u
        g1 = np.array([node(fam, i).grad(x1[i]) for i in range(n)])
        h1 = np.array([node(fam, i).hess(x1[i]) + eps * np.eye(p)
                       for i in range(n)])
        z = 2.0 * x1 - x
        dis = alpha * (z - slow_mix(w, z))
        u = np.array([np.linalg.solve(h1[i], h[i] @ u[i] + g1[i] - g[i] + dis[i])
                      for i in range(n)])
        x, g, h = x1, g1, h1
        st = nt_step(st, fam, mix.disagreement)
        assert np.max(np.abs(st.x - x)) < 1e-12
        assert np.max(np.abs(st.u - u)) < 1e-12


def test_nt_matches_plain_loop_oracle():
    fam, _, mix = cycle_setup()
    assert_nt_matches_plain_loop(fam, mix, alpha=0.8, eps=1.2)


def test_nt_matches_plain_loop_oracle_with_fewer_samples_than_features():
    fam = wide_logistic(n=5)
    mix = metropolis_weights(build_topology("cycle", 5))
    assert_nt_matches_plain_loop(fam, mix, alpha=0.8, eps=1.2)


def conservation_residual(state):
    """Relative defect of sum_i q_i = sum_i grad_i at one state."""
    return conservation_residuals(state.q[None], state.grad[None])[0]


def assert_conservation_along_run(fam):
    d = metropolis_weights(build_topology("cycle", fam.n)).disagreement
    eps = 1.0
    st = nt_init(fam, alpha=1.0, eps=eps)
    assert conservation_residual(st) < 1e-12
    for _ in range(50):
        st = nt_step(st, fam, d)
        assert conservation_residual(st) < 1e-9
        # sum_i q_i = sum_i grad_i carries over to the solved direction:
        # sum_i (hess_i + eps I) u_i = sum_i grad_i.
        h = fam.hess_stack(st.x) + eps * np.eye(fam.p)
        lhs = np.einsum("npq,nq->p", h, st.u)
        rhs = st.grad.sum(axis=0)
        assert np.linalg.norm(lhs - rhs) / (np.linalg.norm(rhs) + 1.0) < 1e-9


def test_conservation_holds_along_run():
    assert_conservation_along_run(wide_logistic(m=8, p=4))


def test_conservation_holds_along_run_with_fewer_samples_than_features():
    assert_conservation_along_run(wide_logistic(m=3, p=7))


def qform_start(method, fam, graph, mix, alpha, eps):
    """(state at t = 0, operator D) of a q-form method."""
    if method == "nt":
        return nt_init(fam, alpha, eps), mix.disagreement
    if method == "extra":
        return extra_init(fam, alpha), mix.disagreement
    return dlm_init(fam, graph, alpha, eps), laplacian(graph)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(n=st.integers(2, 8), tau=st.floats(0.5, 1.0), m=st.integers(1, 8),
       p=st.integers(1, 8), quadratic=st.booleans(), alpha=st.floats(0.05, 1.0),
       eps=st.floats(1.0, 3.0), seed=st.integers(0, 2 ** 16))
def test_conservation_on_random_instances(n, tau, m, p, quadratic, alpha, eps,
                                          seed):
    # sum q = sum g on random connected graphs, logistic data on both sides
    # of m < p or quadratics, at step sizes where the run is stable: the
    # defect is rounding relative to |q|, so a diverging run's grows with it.
    # Every drawn instance runs all three q-form methods.
    graph = build_topology("random", n, tau=tau, seed=seed)
    mix = metropolis_weights(graph)
    fam = generate_quadratic_set(n=n, p=p, seed=seed) if quadratic \
        else wide_logistic(n=n, m=m, p=p, seed=seed)
    for method in ("nt", "extra", "dlm"):
        st_, d = qform_start(method, fam, graph, mix, alpha, eps)
        assert conservation_residual(st_) == 0.0
        for _ in range(30):
            st_ = nt_step(st_, fam, d)
            assert conservation_residual(st_) <= 1e-9, method


def test_nt_fixed_point():
    fam, _, mix = cycle_setup(seed=2)
    eps = 1.5
    x_star = optimum(fam)
    tile = np.tile(x_star, (fam.n, 1))
    st = NewtonTrackingState(x=tile, q=np.zeros_like(tile),
                             u=np.zeros_like(tile), grad=fam.grad_stack(tile),
                             dx=mix.disagreement @ tile, alpha=0.7, eps=eps, t=0)
    assert conservation_residual(st) < 1e-12
    nxt = nt_step(st, fam, mix.disagreement)
    assert np.max(np.abs(nxt.x - tile)) < 1e-12
    assert np.max(np.abs(nxt.u)) < 1e-12


# ---------------------------------------------------------------------------
# Equivalent formulations.
# ---------------------------------------------------------------------------

def run_both_ways(fam, mix, alpha, eps, iters):
    nt = nt_init(fam, alpha, eps)
    pd = pd_init(fam, spectral_stats(mix).root, alpha, eps)
    gaps = []
    for _ in range(iters):
        nt = nt_step(nt, fam, mix.disagreement)
        pd = pd_step(pd, fam, mix.w)
        gaps.append(np.max(np.abs(nt.x - pd.x)))
    return max(gaps)


def test_formulations_agree_quadratic():
    fam = generate_quadratic_set(n=3, p=2, seed=1)
    mix = metropolis_weights(build_topology("cycle", 3))
    assert run_both_ways(fam, mix, 0.9, 1.1, 100) < 1e-10


def test_formulations_agree_logistic():
    mix = metropolis_weights(build_topology("random", 6, tau=0.6, seed=3))
    for m, p in ((8, 4), (3, 7)):  # the second takes reg_solve's m < p path
        fam = wide_logistic(m=m, p=p, seed=2)
        assert run_both_ways(fam, mix, 1.0, 1.0, 100) < 1e-8


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(n=st.integers(2, 8), tau=st.floats(0.5, 1.0), m=st.integers(1, 8),
       p=st.integers(1, 8), alpha=st.floats(0.05, 1.0), eps=st.floats(1.0, 3.0),
       seed=st.integers(0, 2 ** 16))
def test_formulations_agree_on_random_instances(n, tau, m, p, alpha, eps, seed):
    # Random connected graphs and logistic data on both sides of m < p, at
    # step sizes where the pair is stable: the q-form tracks the primal-dual
    # form through 30 rounds.
    mix = metropolis_weights(build_topology("random", n, tau=tau, seed=seed))
    fam = wide_logistic(n=n, m=m, p=p, seed=seed)
    assert run_both_ways(fam, mix, alpha, eps, 30) <= 1e-8


def test_first_primal_dual_step_is_regularized_newton():
    fam, _, mix = cycle_setup(seed=4)
    root = spectral_stats(mix).root
    eps = 2.0
    pd = pd_step(pd_init(fam, root, 0.5, eps), fam, mix.w)
    h = fam.hess_stack(np.zeros((fam.n, fam.p))) + eps * np.eye(fam.p)
    expected = -solve_spd_blocks(lower_band(h),
                                 fam.grad_stack(np.zeros((fam.n, fam.p))))
    assert_allclose(pd.x, expected, atol=1e-13)
    nt = nt_step(nt_init(fam, 0.5, eps), fam, mix.disagreement)
    assert_allclose(pd.x, nt.x, atol=1e-13)


def test_dual_iterate_stays_in_root_range():
    # v accumulates alpha R x, and R annihilates the all-ones direction,
    # so the dual variable sums to zero across nodes forever.
    fam, _, mix = cycle_setup(seed=5)
    root = spectral_stats(mix).root
    pd = pd_init(fam, root, 0.8, 1.0)
    for _ in range(40):
        pd = pd_step(pd, fam, mix.w)
        assert np.max(np.abs(pd.v.sum(axis=0))) < 1e-10


def test_tracked_direction_matches_initial_direction():
    # q starts at grad(0) and u solves the regularized system against it.
    fam, _, _ = cycle_setup(seed=6)
    nt = nt_init(fam, 0.9, 1.3)
    zero = np.zeros((fam.n, fam.p))
    assert np.array_equal(nt.q, fam.grad_stack(zero))
    h = fam.hess_stack(zero) + 1.3 * np.eye(fam.p)
    for i in range(fam.n):
        assert_allclose(nt.u[i], np.linalg.solve(h[i], nt.q[i]), atol=1e-14)


# ---------------------------------------------------------------------------
# First-order baselines: scalar traces and plain-loop oracles.
# ---------------------------------------------------------------------------

def test_gradient_tracking_scalar_trace():
    fam = scalar_family(b=-1.0)
    w = np.array([[1.0]])
    st = gt_init(fam, alpha=0.5)
    seen = [st.x[0, 0]]
    for _ in range(2):
        st = gt_step(st, fam, w)
        seen.append(st.x[0, 0])
    assert_allclose(seen, [0.0, 0.5, 0.75], atol=1e-15)


def test_gradient_tracking_matches_plain_loop():
    fam, _, mix = cycle_setup(seed=7)
    w, alpha = mix.w, 0.05
    n = fam.n
    x = np.zeros((n, fam.p))
    g = np.array([node(fam, i).grad(x[i]) for i in range(n)])
    y = g.copy()
    st = gt_init(fam, alpha)
    for _ in range(50):
        x = slow_mix(w, x) - alpha * y
        g1 = np.array([node(fam, i).grad(x[i]) for i in range(n)])
        y = slow_mix(w, y) + g1 - g
        g = g1
        st = gt_step(st, fam, w)
        assert np.max(np.abs(st.x - x)) < 1e-12
        assert np.max(np.abs(st.y - y)) < 1e-12


def test_tracker_mean_equals_gradient_mean():
    fam = generate_logistic_data(n=6, m=8, p=4, reg=1e-3, seed=4)
    w = metropolis_weights(build_topology("cycle", 6)).w
    st = gt_init(fam, 0.1)
    for _ in range(30):
        st = gt_step(st, fam, w)
        grads = fam.grad_stack(st.x)
        assert np.max(np.abs(st.y.mean(axis=0) - grads.mean(axis=0))) < 1e-10


def test_extra_scalar_trace():
    fam = scalar_family(b=-1.0)
    d = np.zeros((1, 1))  # I - W of a single node
    st = extra_init(fam, alpha=0.5)
    assert st.t == 0 and st.x[0, 0] == 0.0
    st = extra_step(st, fam, d)
    assert st.t == 1
    assert st.x[0, 0] == pytest.approx(0.5, abs=1e-15)
    st = extra_step(st, fam, d)
    assert st.x[0, 0] == pytest.approx(0.75, abs=1e-15)


def plain_loop_cases(seed):
    # A quadratic cycle, then logistic data on a random graph on both sides
    # of m < p: (family, graph, mixing matrix).
    fam, graph, mix = cycle_setup(seed=seed)
    yield fam, graph, mix
    graph = build_topology("random", 6, tau=0.6, seed=seed)
    for m, p in ((8, 4), (3, 7)):
        yield wide_logistic(m=m, p=p, seed=seed), graph, metropolis_weights(graph)


def local_grads(fam, x):
    return np.array([node(fam, i).grad(x[i]) for i in range(fam.n)])


def test_extra_matches_plain_loop():
    alpha = 0.1
    for fam, _, mix in plain_loop_cases(seed=8):
        w = mix.w
        x0 = np.zeros((fam.n, fam.p))
        g0 = local_grads(fam, x0)
        x1 = slow_mix(w, x0) - alpha * g0
        st = extra_step(extra_init(fam, alpha), fam, mix.disagreement)
        assert_allclose(st.x, x1, atol=1e-14)
        for _ in range(50):
            g1 = local_grads(fam, x1)
            x2 = x1 + slow_mix(w, x1) - 0.5 * (x0 + slow_mix(w, x0)) \
                - alpha * (g1 - g0)
            x0, x1, g0 = x1, x2, g1
            st = extra_step(st, fam, mix.disagreement)
            assert np.max(np.abs(st.x - x1)) < 1e-12


def test_dlm_single_node_recursion():
    fam = scalar_family(b=-1.0)
    g = build_topology("complete", 1)
    eps, alpha = 2.0, 0.5
    st = dlm_step(dlm_init(fam, g, alpha=alpha, eps=eps), fam, laplacian(g))
    # degree 0: D = 1/eps and the Laplacian vanishes
    grad0 = -1.0
    x0, x1 = 0.0, -grad0 / eps
    assert st.x[0, 0] == pytest.approx(x1, abs=1e-15)
    for _ in range(5):
        g1 = x1 - 1.0
        x2 = 2.0 * x1 - x0 - (g1 - grad0) / eps
        x0, x1, grad0 = x1, x2, g1
        st = dlm_step(st, fam, laplacian(g))
        assert st.x[0, 0] == pytest.approx(x1, abs=1e-13)


def test_dlm_matches_plain_loop():
    alpha, eps = 0.4, 0.4
    for fam, graph, _ in plain_loop_cases(seed=9):
        deg = graph.degrees
        lap = np.diag(deg.astype(float)) - graph.adjacency()
        dscale = 1.0 / (2.0 * alpha * deg + eps)
        x0 = np.zeros((fam.n, fam.p))
        g0 = local_grads(fam, x0)
        x1 = x0 - alpha * dscale[:, None] * (lap @ x0) - dscale[:, None] * g0
        st = dlm_step(dlm_init(fam, graph, alpha, eps), fam, laplacian(graph))
        assert_allclose(st.x, x1, atol=1e-14)
        for _ in range(50):
            g1 = local_grads(fam, x1)
            z = 2.0 * x1 - x0
            x2 = z - alpha * dscale[:, None] * (lap @ z) \
                - dscale[:, None] * (g1 - g0)
            x0, x1, g0 = x1, x2, g1
            st = dlm_step(st, fam, laplacian(graph))
            assert np.max(np.abs(st.x - x1)) < 1e-12


# ---------------------------------------------------------------------------
# Fixed points of the baselines.
# ---------------------------------------------------------------------------

def test_states_cannot_be_assigned():
    fam, graph, mix = cycle_setup(seed=10)
    states = [nt_init(fam, 1.0, 1.5), extra_init(fam, 0.1),
              dlm_init(fam, graph, 0.1, 0.4), gt_init(fam, 0.05),
              pd_init(fam, spectral_stats(mix).root, 1.0, 1.5)]
    for state in states:
        with pytest.raises(AttributeError):
            state.x = np.ones_like(state.x)
        with pytest.raises(AttributeError):
            state.t = 1
        moved = state._replace(t=3)
        assert (moved.t, state.t) == (3, 0) and moved.x is state.x


def test_baseline_fixed_points():
    fam, graph, mix = cycle_setup(seed=10)
    tile = np.tile(optimum(fam), (fam.n, 1))
    g_star = fam.grad_stack(tile)
    zero = np.zeros_like(tile)

    gt = GradientTrackingState(x=tile, y=zero, grad=g_star, alpha=0.05)
    gt = gt_step(gt, fam, mix.w)
    assert np.max(np.abs(gt.x - tile)) < 1e-12
    assert np.max(np.abs(gt.y)) < 1e-12

    # The q-form fixed point: x = x*, q = u = 0, grad = g*.
    for method in ("extra", "dlm"):
        st, d = qform_start(method, fam, graph, mix, 0.1, 0.4)
        st = st._replace(x=tile, q=zero, u=zero, grad=g_star, t=1)
        st = nt_step(st, fam, d)
        assert np.max(np.abs(st.x - tile)) < 1e-12, method
        assert np.max(np.abs(st.u)) < 1e-12, method


# ---------------------------------------------------------------------------
# Shared consensus limit on one logistic instance.
# ---------------------------------------------------------------------------

def test_all_methods_reach_the_same_consensus():
    fam = generate_logistic_data(n=6, m=8, p=4, reg=1e-3, seed=2)
    graph = build_topology("cycle", 6)
    mix = metropolis_weights(graph)
    tile = np.tile(centralized_reference(fam, tol=1e-13), (6, 1))

    nt = nt_init(fam, 1.0, 1.0)
    gt = gt_init(fam, 0.15)
    ex = extra_init(fam, 0.3)
    dl = dlm_init(fam, graph, 0.3, 0.3)
    for _ in range(800):
        nt = nt_step(nt, fam, mix.disagreement)
        gt = gt_step(gt, fam, mix.w)
        ex = extra_step(ex, fam, mix.disagreement)
        dl = dlm_step(dl, fam, laplacian(graph))
    for st in (nt, gt, ex, dl):
        assert np.max(np.abs(st.x - tile)) < 1e-6


# ---------------------------------------------------------------------------
# Infrastructure.
# ---------------------------------------------------------------------------

def test_comm_cost_table():
    # One round per iteration; gradient tracking ships x and y together.
    cfg = RunConfig(
        name="cost", topology=TopologySpec(kind="cycle", n=10),
        data=DataSpec(family="quadratic", p=8, seed=0),
        algorithms=(AlgorithmSpec("gt", alpha=0.05),
                    AlgorithmSpec("nt", alpha=1.0, eps=1.5),
                    AlgorithmSpec("extra", alpha=0.1),
                    AlgorithmSpec("dlm", alpha=0.4, eps=0.4)),
        iters=3)
    per_round = {name: (tr.comm_rounds[1], tr.scalars_sent[1])
                 for name, tr in run_experiment(cfg).traces.items()}
    assert per_round == {"gt": (1, 160), "nt": (1, 80), "extra": (1, 80),
                         "dlm": (1, 80)}
    with pytest.raises(ValueError, match="admm"):
        RunConfig(name="cost", topology=cfg.topology, data=cfg.data,
                  algorithms=(AlgorithmSpec("admm", alpha=0.1),), iters=3)


def test_solve_spd_blocks_matches_dense_solve():
    rng = np.random.default_rng(1)
    blocks = np.empty((4, 3, 3))
    for i in range(4):
        m = rng.standard_normal((3, 3))
        blocks[i] = m @ m.T + 3.0 * np.eye(3)
    rhs = rng.standard_normal((4, 3))
    out = solve_spd_blocks(lower_band(blocks), rhs)
    for i in range(4):
        assert_allclose(out[i], np.linalg.solve(blocks[i], rhs[i]), atol=1e-12)


def test_solve_spd_blocks_reports_bad_node():
    blocks = np.stack([np.eye(2), np.zeros((2, 2)), np.eye(2)])
    with pytest.raises(np.linalg.LinAlgError, match="node 1"):
        solve_spd_blocks(lower_band(blocks), np.ones((3, 2)))
    # The first failing node is named, wherever it sits in the stack.
    for bad, first in (((2,), 2), ((0, 2), 0)):
        blocks = np.stack([np.eye(2)] * 3)
        blocks[list(bad)] = np.diag([1.0, -1.0])
        with pytest.raises(np.linalg.LinAlgError, match=f"node {first} "):
            solve_spd_blocks(lower_band(blocks), np.ones((3, 2)))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 8), b=st.integers(1, 12), seed=st.integers(0, 2 ** 16),
       data=st.data())
def test_solve_spd_blocks_property(n, b, seed, data):
    # One banded solve of the whole stack against a dense solve per block;
    # b = 1 is a band of half-width 0.
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, b, b))
    blocks = m @ m.transpose(0, 2, 1) + b * np.eye(b)
    rhs = rng.standard_normal((n, b))
    expected = np.array([np.linalg.solve(blocks[i], rhs[i]) for i in range(n)])
    got = solve_spd_blocks(lower_band(blocks), rhs)
    assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)

    # Indefinite blocks at 1 to 3 random places, each failing at row r of
    # its factor: the first is named.
    bad = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3,
                             unique=True))
    row = data.draw(st.integers(0, b - 1))
    broken = blocks.copy()
    broken[bad] = np.diag(np.where(np.arange(b) == row, -1.0, 1.0))
    with pytest.raises(np.linalg.LinAlgError, match=f"node {min(bad)} "):
        solve_spd_blocks(lower_band(broken), rhs)

    # A NaN block does not raise.  Its node's output is NaN; the band factor
    # may carry the NaN to other nodes, but no node gets a wrong finite value.
    node = data.draw(st.integers(0, n - 1))
    broken = blocks.copy()
    broken[node] = np.nan
    got = solve_spd_blocks(lower_band(broken), rhs)
    assert np.isnan(got[node]).all()
    finite = np.isfinite(got)
    assert np.linalg.norm(got[finite] - expected[finite]) \
        <= 1e-12 * np.linalg.norm(expected)


@pytest.mark.parametrize("eps", [1e-4, 1.0])
@pytest.mark.parametrize("scale", [0.0, 1.0, 60.0])
def test_reg_solve_woodbury_matches_dense(eps, scale):
    # x = 0 puts every curvature weight at 1/4; |x| large drives them to 0.
    fam = wide_logistic()
    rng = np.random.default_rng(7)
    x = scale * rng.standard_normal((fam.n, fam.p))
    rhs = rng.standard_normal((fam.n, fam.p))
    expected = dense_reg_solve(fam, x, eps, rhs)

    def no_hessian(_):
        raise AssertionError("the m < p path formed the p x p Hessian")

    curve = fam.grad_curvature(x)[1]
    fam.hess_stack = fam.hess_blocks = fam.hess_band = no_hessian
    got = reg_solve(fam, curve, eps, rhs)
    assert np.linalg.norm(got - expected) <= 1e-10 * np.linalg.norm(expected)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 5), m=st.integers(1, 9), p=st.integers(1, 9),
       log_eps=st.floats(-4.0, 1.0), scale=st.floats(0.0, 20.0),
       seed=st.integers(0, 2 ** 16))
def test_reg_solve_matches_dense_property(n, m, p, log_eps, scale, seed):
    # Both sides of m < p: Woodbury and the stacked dense solve.
    fam = wide_logistic(n=n, m=m, p=p, seed=seed)
    rng = np.random.default_rng(seed)
    x = scale * rng.standard_normal((n, p))
    rhs = rng.standard_normal((n, p))
    eps = 10.0 ** log_eps
    expected = dense_reg_solve(fam, x, eps, rhs)
    got = reg_solve(fam, fam.grad_curvature(x)[1], eps, rhs)
    assert np.linalg.norm(got - expected) <= 1e-10 * np.linalg.norm(expected)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 6), m=st.integers(1, 8), extra=st.integers(1, 8),
       log_eps=st.floats(-4.0, 1.0), log_scale=st.floats(-2.0, 4.0),
       planted=st.lists(st.sampled_from([0.0, 5e-324, 1e-310, 1e-300]), max_size=4),
       seed=st.integers(0, 2 ** 16))
def test_woodbury_solve_takes_the_limit_of_vanishing_weights(
        n, m, extra, log_eps, log_scale, planted, seed):
    # A margin past about 36 rounds a weight to exactly 0, one past about 708
    # to a subnormal; a few are also planted.  a / c is then infinite or
    # huge, and the m < p solve must still match the dense one, warning-free.
    p = m + extra
    fam = wide_logistic(n=n, m=m, p=p, seed=seed)
    rng = np.random.default_rng(seed)
    x = 10.0 ** log_scale * rng.standard_normal((n, p))
    rhs = rng.standard_normal((n, p))
    eps = 10.0 ** log_eps
    curve = fam.grad_curvature(x)[1]
    planted = planted[:curve.size]
    curve.flat[rng.choice(curve.size, len(planted), replace=False)] = planted
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = reg_solve(fam, curve, eps, rhs)
    expected = dense_curve_solve(fam, curve, eps, rhs)
    assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)


def test_woodbury_solve_carries_a_nan_weight_without_raising():
    # A NaN weight is no number to solve with: its node's direction is NaN,
    # for the run's divergence check to stop on, with no error or warning.
    fam = wide_logistic()
    rng = np.random.default_rng(5)
    curve = fam.grad_curvature(rng.standard_normal((fam.n, fam.p)))[1]
    curve[2, 1] = np.nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = reg_solve(fam, curve, 0.1, rng.standard_normal((fam.n, fam.p)))
    assert np.isnan(got[2]).all()


def skew_pack(blocks):
    # Full symmetric blocks in band layout, as first written: columns
    # written as rows of width 2b - 1, read back at width 2b.
    n, b, _ = blocks.shape
    skew = np.zeros((n, b + 1, 2 * b - 1))
    skew[:, :b, :b] = blocks.transpose(0, 2, 1)
    return skew.reshape(n, -1)[:, :2 * b * b].reshape(n, b, 2 * b)[:, :, :b]


def band_solve(band, rhs):
    n, b, _ = band.shape
    _, out, info = dpbsv(band.reshape(n * b, b).T, rhs.reshape(n * b, 1),
                         lower=1, overwrite_ab=1)
    assert info == 0
    return out.reshape(n, b)


def skew_band_solve(blocks, rhs):
    # The band solve as first written: full blocks skew-packed, then dpbsv.
    return band_solve(skew_pack(blocks), rhs)


def curvature(fam, x):
    # A sigmoid pass of reg_solve's own.
    s = expit(-((fam.features @ x[:, :, None])[:, :, 0] * fam.labels))
    return s * (1.0 - s)


def full_block_reg_solve(fam, x, eps, rhs):
    # reg_solve with full blocks: G + diag(a / c) or hess + eps I with
    # np.eye shifts, then skew_band_solve.
    f, curve = fam.features, curvature(fam, x)
    if fam.m < fam.p:
        a = fam.ridge + eps
        k = f @ f.transpose(0, 2, 1)
        i = np.arange(fam.m)
        with np.errstate(divide="ignore", over="ignore"):
            k[:, i, i] += a / curve
        w = skew_band_solve(k, (f @ rhs[:, :, None])[:, :, 0])
        return (rhs - (w[:, None, :] @ f)[:, 0, :]) / a
    h = f.transpose(0, 2, 1) @ (f * curve[:, :, None])
    h += fam.ridge * np.eye(fam.p)
    h += eps * np.eye(fam.p)
    return skew_band_solve(h, rhs)


def sample_sum_reg_solve(fam, x, eps, rhs):
    # The m >= p solve with each block summed as sum_j c_j (f_j f_j'): every
    # sample's full outer product skew-packed, then weighted by c_j in one
    # product, the association (and the layout) of the family's cached
    # products; then the ridge and eps shifts on the diagonal.
    n, m, p = fam.features.shape
    f = fam.features
    outer = f[:, :, :, None] * f[:, :, None, :]
    pairs = np.ascontiguousarray(skew_pack(outer.reshape(n * m, p, p)))
    pairs = pairs.reshape(n, m, p * p)
    band = (curvature(fam, x)[:, None, :] @ pairs).reshape(n, p, p)
    band[:, :, 0] += fam.ridge
    band[:, :, 0] += eps
    return band_solve(band, rhs)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 6), m=st.integers(1, 9), p=st.integers(1, 9),
       log_eps=st.floats(-4.0, 1.0), scale=st.floats(0.0, 20.0),
       seed=st.integers(0, 2 ** 16))
def test_reg_solve_is_bit_identical_to_full_block_form(n, m, p, log_eps, scale,
                                                       seed):
    # The band build, the in-place diagonal shifts and the shared sigmoid
    # pass change no bit of the solve, on both sides of m < p.  For m >= p
    # the band is one product of the weights with the cached sample
    # products, which sums c_j (F_jr F_jc) where the full block sums
    # F_jr (c_j F_jc): bit for bit the sample-sum form, and within
    # rounding of the full block form.
    fam = wide_logistic(n=n, m=m, p=p, seed=seed)
    rng = np.random.default_rng(seed)
    x = scale * rng.standard_normal((n, p))
    rhs = rng.standard_normal((n, p))
    eps = 10.0 ** log_eps
    got = reg_solve(fam, fam.grad_curvature(x)[1], eps, rhs)
    full = full_block_reg_solve(fam, x, eps, rhs)
    if m < p:
        assert np.array_equal(got, full)
    else:
        assert np.array_equal(got, sample_sum_reg_solve(fam, x, eps, rhs))
        assert np.linalg.norm(got - full) <= 1e-13 * np.linalg.norm(full)


@pytest.mark.parametrize("n, m, p", [(10, 12, 8), (100, 10, 40)],
                         ids=["fig1", "fig5-shape"])
def test_one_sigmoid_pass_per_round(monkeypatch, n, m, p):
    # The gradient and the curvature weights of an iterate share one expit
    # call, on the dense path (fig1) and the m < p path (fig5 shape).
    fam = generate_logistic_data(n=n, m=m, p=p, reg=1e-3, seed=1)
    mix = metropolis_weights(build_topology("cycle", n))
    nt = nt_init(fam, 0.5, 1.0)
    pd = pd_init(fam, spectral_stats(mix).root, 0.5, 1.0)
    calls = []
    real = objectives.expit
    monkeypatch.setattr(objectives, "expit", lambda z: calls.append(z) or real(z))
    nt_step(nt, fam, mix.disagreement)
    assert len(calls) == 1
    pd_step(pd, fam, mix.w)
    assert len(calls) == 2


@pytest.mark.parametrize("method", ["nt", "extra", "dlm"])
def test_only_nt_rounds_form_curvature_weights(monkeypatch, method):
    # EXTRA and DLM scale q by a constant curvature, so their inits and
    # rounds evaluate the plain gradient; nt's need the Hessian weights.
    fam = wide_logistic(n=6, m=3, p=7)
    graph = build_topology("cycle", 6)
    calls = []
    for name in ("grad_stack", "grad_curvature"):
        real = getattr(fam, name)
        monkeypatch.setattr(fam, name, lambda x, real=real, name=name:
                            calls.append(name) or real(x))
    state, d = qform_start(method, fam, graph, metropolis_weights(graph), 0.5, 1.0)
    for _ in range(3):
        state = nt_step(state, fam, d)
    assert calls == ["grad_curvature" if method == "nt" else "grad_stack"] * 4


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 40), p=st.integers(1, 40), log_scale=st.integers(-12, 6),
       seed=st.integers(0, 2 ** 16))
def test_norm_is_linalg_norm_bit_for_bit(n, p, log_scale, seed):
    # Same dot over the same memory order, whatever the layout.
    a = np.random.default_rng(seed).standard_normal((n, p)) * 10.0 ** log_scale
    layouts = {"1-D": a.ravel(), "C": a, "F": np.asfortranarray(a),
               "strided": a[::2, ::3], "transposed": a.T, "transposed strided": a.T[::3]}
    for name, view in layouts.items():
        assert norm(view) == np.linalg.norm(view), name


def test_init_validation():
    fam = scalar_family()
    w = np.array([[1.0]])
    g = build_topology("complete", 1)
    for bad in (0.0, -1.0):
        with pytest.raises(ValueError):
            nt_init(fam, bad, 1.0)
        with pytest.raises(ValueError):
            nt_init(fam, 1.0, bad)
        with pytest.raises(ValueError):
            pd_init(fam, w, bad, 1.0)
        with pytest.raises(ValueError):
            pd_init(fam, w, 1.0, bad)
        with pytest.raises(ValueError):
            gt_init(fam, bad)
        with pytest.raises(ValueError):
            extra_init(fam, bad)
        with pytest.raises(ValueError):
            dlm_init(fam, g, bad, 1.0)


@pytest.mark.parametrize("family", [
    generate_logistic_data(n=10, m=12, p=8, reg=1e-3, seed=1),
    generate_quadratic_set(n=4, p=3, seed=11),
], ids=["fig1", "quadratic"])
def test_centralized_reference_evaluates_each_point_once(family, monkeypatch):
    # One gradient pass per point, whose curvature weights the Hessian at an
    # accepted point reuses: no point is evaluated twice.
    points = []
    real = family.grad_curvature_total
    monkeypatch.setattr(family, "grad_curvature_total",
                        lambda x: points.append(x.tobytes()) or real(x))
    centralized_reference(family)
    assert len(points) == len(set(points)) > 1


def test_centralized_reference_quadratic_and_symmetry():
    fam = generate_quadratic_set(n=4, p=3, seed=11)
    ref = centralized_reference(fam, tol=1e-13)
    assert np.max(np.abs(ref - optimum(fam))) < 1e-12

    ds = generate_logistic_data(n=4, m=6, p=3, reg=1e-2, seed=12)
    flipped = LogisticFamily(features=-ds.features, labels=-ds.labels,
                             reg=ds.reg)
    a = centralized_reference(ds)
    b = centralized_reference(flipped)
    assert np.linalg.norm(ds.grad_curvature_total(a)[0]) <= 1e-12
    assert_allclose(a, b, atol=1e-12)


def checked_reference(family, tol=1e-12, max_iter=200):
    """The damped Newton loop of centralized_reference through scipy's
    checked wrappers (cho_factor, cho_solve) and np.linalg.norm: an oracle
    for its direct LAPACK calls, which must match it bit for bit."""
    x = np.zeros(family.p)
    g = family.grad_curvature_total(x)[0]
    for _ in range(max_iter):
        gn = np.linalg.norm(g)
        if gn <= tol:
            return x
        curve = family.grad_curvature_total(x)[1]
        d = cho_solve(cho_factor(family.hess_total(x, curve)), g)
        step = 1.0
        while step > 1e-12:
            xn = x - step * d
            gxn = family.grad_curvature_total(xn)[0]
            if np.linalg.norm(gxn) <= (1.0 - 0.25 * step) * gn:
                break
            step *= 0.5
        x, g = xn, gxn
    raise AssertionError("the oracle stalled")


@pytest.mark.parametrize("name", ["fig1", "topo-n10", "fig5-n100", "quadratic"])
def test_centralized_reference_is_the_checked_loop_bit_for_bit(name):
    if name == "quadratic":
        family, tol = generate_quadratic_set(n=4, p=3, seed=11), 1e-13
    else:
        # The harness solves at centralized_reference's default tol.
        family, tol = harness.build_objective(harness.preset(name)).family, 1e-12
    assert centralized_reference(family, tol=tol).tobytes() == \
        checked_reference(family, tol=tol).tobytes()


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 8), m=st.integers(1, 15), p=st.integers(1, 10),
       reg=st.floats(1e-4, 1.0), seed=st.integers(0, 2 ** 16))
def test_centralized_reference_is_the_checked_loop_on_random_data(n, m, p, reg,
                                                                   seed):
    family = generate_logistic_data(n=n, m=m, p=p, reg=reg, seed=seed)
    assert centralized_reference(family).tobytes() == \
        checked_reference(family).tobytes()


def test_centralized_reference_rejects_a_singular_hessian():
    # grad = x - 1 at a constant Hessian [[1, 1], [1, 1]]: rank one, and
    # its second pivot is exactly 0, so the factorization must fail.
    class Singular:
        p = 2

        @staticmethod
        def grad_curvature_total(x):
            return x - 1.0, None

        @staticmethod
        def hess_total(x, curve):
            return np.ones((2, 2))

    with pytest.raises(np.linalg.LinAlgError, match="not positive definite"):
        centralized_reference(Singular())
    with pytest.raises(np.linalg.LinAlgError):
        checked_reference(Singular())
