"""Convergence certificates and trajectory checks.

The reference certificate below (mu = lip = 1, complete graph on 10
nodes, alpha = 0.1, eps = 5, beta = phi = 2) is small enough to evaluate
by hand: Q = 5 I - 0.1 (I - W) has spectrum in [4.9, 5], the feasibility
threshold is 4 lip^2 / mu = 4 < 4.9, delta = 1 - 4/4.9, and delta_prime
is the minimum of the two branch formulas typed out in the test.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from newtrack.algorithms import centralized_reference, pd_init, pd_step
from newtrack.analysis import (consensus_penalty_matrix, contraction_check,
                               dual_optimum, g_norm_metric, rate_certificate,
                               stationarity_identity_check)
from newtrack.objectives import (LogisticFamily, ObjectiveBounds, QuadraticFamily,
                                 convexity_bounds, generate_logistic_data)
from newtrack.topology import (build_topology, metropolis_weights,
                               spectral_stats)
from oracles import (approximation_error, decay_window, fit_linear_rate, optimum,
                     remainder_report)

UNIT_BOUNDS = ObjectiveBounds(mu=1.0, lip=1.0)


def complete10():
    mix = metropolis_weights(build_topology("complete", 10))
    return mix, spectral_stats(mix)


def identity_family(n=10, p=3, seed=0):
    # Per-node f_i(x) = ||x||^2 / 2 + b_i . x, so mu = lip = 1 exactly.
    rng = np.random.default_rng(seed)
    a = np.tile(np.eye(p), (n, 1, 1))
    return QuadraticFamily(a, rng.standard_normal((n, p)))


def metric(mix, cert, x_star, v_star):
    """The squared error of cert's metric on mix, whose values along a
    trajectory contraction_check bounds."""
    return g_norm_metric(consensus_penalty_matrix(mix.w, cert["alpha"], cert["eps"]),
                         x_star, v_star, cert["alpha"])


def energies_along(xs, vs, energy):
    return [energy(x, v) for x, v in zip(xs, vs)]


def reference_certificate(beta=2.0, phi=2.0):
    _, stats = complete10()
    return rate_certificate(UNIT_BOUNDS, stats, alpha=0.1, eps=5.0,
                            beta=beta, phi=phi)


# ---------------------------------------------------------------------------
# Certificate arithmetic.
# ---------------------------------------------------------------------------

def test_reference_certificate_hand_computed():
    cert = reference_certificate()
    assert cert["q_min"] == pytest.approx(4.9, rel=1e-15)
    assert cert["q_max"] == 5.0
    assert cert["kappa"] == pytest.approx(2.1, rel=1e-15)
    assert cert["feasible"]

    delta = 1.0 - 4.0 / 4.9
    first = delta / ((1.0 + delta) * (5.0 + 4.0 / 0.1))
    second = 0.1 * delta ** 2 * 4.9 / (2.0 * 25.0 + 4.0 * 2.1 ** 2)
    assert cert["delta"] == pytest.approx(delta, rel=1e-14)
    assert cert["delta_prime"] == pytest.approx(min(first, second), rel=1e-14)

    # frozen values; the second branch is the binding one here
    assert cert["delta"] == pytest.approx(0.1836734693877552, rel=1e-12)
    assert cert["delta_prime"] == pytest.approx(0.00024439107399316945, rel=1e-12)
    assert cert["contraction"] == pytest.approx(0.9997556686384108, rel=1e-12)


def test_feasibility_threshold_is_strict():
    # lam_max = 1 (complete graph in exact arithmetic), alpha = 1, eps = 5
    # gives q_min = 4, exactly on the threshold 4 lip^2 / mu: must not pass.
    stats = SimpleNamespace(lambda_max=1.0, lambda_min_nz=1.0)
    cert = rate_certificate(UNIT_BOUNDS, stats, alpha=1.0, eps=5.0)
    assert cert["q_min"] == 4.0
    assert not cert["feasible"]
    assert cert["delta"] == 0.0
    assert cert["delta_prime"] is None
    assert cert["contraction"] is None


def test_negative_q_min_leaves_delta_undefined():
    stats = SimpleNamespace(lambda_max=1.0, lambda_min_nz=1.0)
    cert = rate_certificate(UNIT_BOUNDS, stats, alpha=1.0, eps=0.5)
    assert cert["q_min"] < 0
    assert not cert["feasible"]
    assert cert["delta"] is None
    assert cert["delta_prime"] is None


@pytest.mark.parametrize("feasible", [True, False])
def test_certificate_doc_is_its_fields_then_contraction(feasible):
    # The inputs, the derived constants, then the contraction factor, which
    # is 1 / (1 + delta_prime) when feasible and None (as are delta_prime
    # and, below q_min = 0, delta) when not.
    stats = SimpleNamespace(lambda_max=1.0, lambda_min_nz=1.0)
    cert = reference_certificate() if feasible else \
        rate_certificate(UNIT_BOUNDS, stats, alpha=1.0, eps=0.5)
    assert type(cert) is dict
    assert cert["feasible"] is feasible
    assert list(cert) == ["mu", "lip", "alpha", "eps", "lam_max", "lam_min_nz",
                          "beta", "phi", "q_min", "q_max", "kappa", "feasible",
                          "delta", "delta_prime", "contraction"]
    derived = [float] * 3 + [bool] + [float if feasible else type(None)] * 3
    assert [type(v) for v in cert.values()] == [float] * 8 + derived
    if feasible:
        assert cert["contraction"] == 1.0 / (1.0 + cert["delta_prime"])


def test_certificate_parameter_validation():
    _, stats = complete10()
    for kwargs in ({"alpha": 0.0, "eps": 1.0}, {"alpha": 1.0, "eps": 0.0},
                   {"alpha": 1.0, "eps": 1.0, "beta": 1.0},
                   {"alpha": 1.0, "eps": 1.0, "phi": 0.5}):
        with pytest.raises(ValueError):
            rate_certificate(UNIT_BOUNDS, stats, **kwargs)


def test_delta_prime_monotone_in_connectivity():
    # Better-connected networks (larger smallest nonzero eigenvalue)
    # certify at least as fast a rate, all else fixed.
    vals = []
    for lam_min in np.linspace(0.1, 1.0, 10):
        stats = SimpleNamespace(lambda_max=1.0, lambda_min_nz=float(lam_min))
        cert = rate_certificate(UNIT_BOUNDS, stats, alpha=1.0, eps=9.0)
        assert cert["feasible"]
        vals.append(cert["delta_prime"])
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_delta_shrinks_with_lambda_max():
    vals = []
    for lam_max in np.linspace(1.0, 1.9, 10):
        stats = SimpleNamespace(lambda_max=float(lam_max), lambda_min_nz=1.0)
        cert = rate_certificate(UNIT_BOUNDS, stats, alpha=1.0, eps=9.0)
        vals.append(cert["delta"])
    assert all(b <= a for a, b in zip(vals, vals[1:]))


# ---------------------------------------------------------------------------
# Error metric and KKT residuals.
# ---------------------------------------------------------------------------

def test_g_norm_error_matches_kron_oracle():
    mix, _ = complete10()
    q = consensus_penalty_matrix(mix.w, alpha=0.1, eps=5.0)
    rng = np.random.default_rng(2)
    p = 3
    x = rng.standard_normal((10, p))
    v = rng.standard_normal((10, p))
    x_star = rng.standard_normal(p)
    v_star = rng.standard_normal((10, p))
    alpha = 0.1
    got = g_norm_metric(q, x_star, v_star, alpha)(x, v)
    dx = (x - x_star[None, :]).reshape(-1)
    dv = (v - v_star).reshape(-1)
    big_q = np.kron(q, np.eye(p))
    want = float(dx @ big_q @ dx + dv @ dv / alpha)
    assert got == pytest.approx(want, rel=1e-12)


def test_g_norm_error_eigenvector_case():
    mix, _ = complete10()
    alpha, eps = 0.1, 5.0
    q = consensus_penalty_matrix(mix.w, alpha, eps)
    lam, vec = np.linalg.eigh(q)
    x = vec[:, [0]]  # p = 1 column, unit norm
    zero = np.zeros_like(x)
    got = g_norm_metric(q, np.zeros(1), zero, alpha)(x, zero)
    assert got == pytest.approx(lam[0], rel=1e-12)


def test_g_norm_error_rejects_bad_metric():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((4, 2))
    v = np.zeros_like(x)
    with pytest.raises(ValueError):
        g_norm_metric(np.triu(np.ones((4, 4))), np.zeros(2), v, 1.0)(x, v)
    with pytest.raises(ValueError):
        g_norm_metric(-np.eye(4), np.zeros(2), v, 1.0)(x, v)


def test_kkt_residual_at_optimum():
    fam = identity_family()
    mix, stats = complete10()
    x_star = optimum(fam)
    v_star = dual_optimum(fam, x_star, stats.root)
    assert np.max(np.abs(v_star.sum(axis=0))) < 1e-10
    tile = np.tile(x_star, (10, 1))
    # primal = ||root @ x||, dual = ||grad(x) + root @ v||, as the harness
    # records them.
    primal = float(np.linalg.norm(stats.root @ tile))
    dual = float(np.linalg.norm(fam.grad_stack(tile) + stats.root @ v_star))
    assert primal < 1e-10
    assert dual < 1e-8
    off = tile.copy()
    off[0] += 1.0
    assert float(np.linalg.norm(stats.root @ off)) > 0.1


# ---------------------------------------------------------------------------
# Remainder and identity checks along trajectories.
# ---------------------------------------------------------------------------

def pd_trajectory(fam, mix, stats, alpha, eps, iters):
    xs, vs = [], []
    st = pd_init(fam, stats.root, alpha, eps)
    xs.append(st.x.copy())
    vs.append(st.v.copy())
    for _ in range(iters):
        st = pd_step(st, fam, mix.w)
        xs.append(st.x.copy())
        vs.append(st.v.copy())
    return xs, vs


def test_quadratic_remainder_is_pure_network_term():
    # For quadratics the Taylor part cancels exactly, leaving only
    # -alpha (I - W)(x1 - x0).
    fam = identity_family(seed=3)
    mix, _ = complete10()
    rng = np.random.default_rng(4)
    x0 = rng.standard_normal((10, 3))
    x1 = rng.standard_normal((10, 3))
    d = x1 - x0
    e = approximation_error(x0, x1, fam, mix.w, alpha=0.7)
    assert_allclose(e, -0.7 * (d - mix.w @ d), atol=1e-12)


def test_remainder_bound_on_runs():
    fam = identity_family(seed=5)
    mix, stats = complete10()
    xs, _ = pd_trajectory(fam, mix, stats, alpha=0.1, eps=5.0, iters=60)
    assert len(xs) - 1 == 60
    rep = remainder_report(xs, fam, mix.w, 0.1, convexity_bounds(fam))
    assert rep["passed"]
    assert rep["detail"]["worst"] <= 1.0 + 1e-10

    lfam = generate_logistic_data(n=6, m=8, p=4, reg=1e-3, seed=6)
    lmix = metropolis_weights(build_topology("cycle", 6))
    lstats = spectral_stats(lmix)
    lxs, _ = pd_trajectory(lfam, lmix, lstats, alpha=1.0, eps=1.0, iters=60)
    lrep = remainder_report(lxs, lfam, lmix.w, 1.0, convexity_bounds(lfam))
    assert lrep["passed"]


def test_remainder_check_stationary_trajectory():
    fam = identity_family(seed=7)
    mix, _ = complete10()
    tile = np.tile(optimum(fam), (10, 1))
    rep = remainder_report([tile, tile, tile], fam, mix.w, 0.5,
                           convexity_bounds(fam))
    assert rep["passed"]
    assert rep["detail"]["worst"] == 0.0


def test_remainder_check_flags_understated_bounds():
    # The checker must report violations when handed constants that are
    # too small for the data, not repair them.
    fam = generate_logistic_data(n=4, m=6, p=3, reg=0.0, seed=8)
    mix = metropolis_weights(build_topology("cycle", 4))
    xs = [np.zeros((4, 3)), np.full((4, 3), 50.0)]
    rep = remainder_report(xs, fam, mix.w, 1e-6,
                           ObjectiveBounds(mu=1e-12, lip=1e-12))
    assert rep["detail"]["violations"] >= 1
    assert rep["detail"]["worst"] > 1.0


def test_stationarity_identity_on_run():
    fam = identity_family(seed=9)
    mix, stats = complete10()
    alpha, eps = 0.1, 5.0
    xs, vs = pd_trajectory(fam, mix, stats, alpha, eps, iters=80)
    x_star = optimum(fam)
    v_star = dual_optimum(fam, x_star, stats.root)
    rep = stationarity_identity_check(xs, vs, fam, mix.w, stats.root, alpha,
                                      eps, x_star, v_star)
    assert rep["passed"]
    assert rep["detail"]["worst"] < 1e-8

    # A constant shift lies in the kernel of the root and stays invisible;
    # corrupt a single node's dual so the defect is actually observable.
    bad_vs = []
    for v in vs:
        bad = v.copy()
        bad[0] += 0.1
        bad_vs.append(bad)
    rep_bad = stationarity_identity_check(xs, bad_vs, fam, mix.w, stats.root,
                                          alpha, eps, x_star, v_star)
    assert not rep_bad["passed"]


@pytest.mark.parametrize("m, p", [(12, 8), (4, 8)], ids=["dense", "low-rank"])
def test_stationarity_identity_takes_one_sigmoid_pass_per_iterate(monkeypatch, m, p):
    # grad_curvature gives each iterate's gradient and Hessian weights in one
    # sigmoid pass, and one more pass is the gradient at x*: len(xs) + 1,
    # where grad_stack and hess_stack made 2 len(xs).  The worst residual is
    # bit for bit that of the grad_stack and hess_stack form.
    fam = generate_logistic_data(n=10, m=m, p=p, reg=1e-2, seed=1)
    mix, stats = complete10()
    alpha, eps = 0.5, 2.0
    xs, vs = pd_trajectory(fam, mix, stats, alpha, eps, iters=15)
    x_star = centralized_reference(fam)
    v_star = dual_optimum(fam, x_star, stats.root)

    g_star = fam.grad_stack(np.tile(x_star, (fam.n, 1)))
    scale, worst = 1.0, 0.0
    for t in range(len(xs) - 1):
        g1 = fam.grad_stack(xs[t + 1])
        r = g1 - g_star + stats.root @ (vs[t + 1] - v_star) \
            + eps * (xs[t + 1] - xs[t]) \
            + approximation_error(xs[t], xs[t + 1], fam, mix.w, alpha)
        scale = max(scale, float(np.linalg.norm(g1)))
        worst = max(worst, float(np.linalg.norm(r)) / scale)

    calls = []
    real = LogisticFamily._sigmoid
    monkeypatch.setattr(LogisticFamily, "_sigmoid",
                        lambda self, x: calls.append(x) or real(self, x))
    rep = stationarity_identity_check(xs, vs, fam, mix.w, stats.root, alpha,
                                      eps, x_star, v_star)
    assert len(calls) == len(xs) + 1
    assert rep == {"passed": True, "detail": {"worst": worst}}


# ---------------------------------------------------------------------------
# Certified contraction.
# ---------------------------------------------------------------------------

def test_contraction_certified_on_reference_problem():
    fam = identity_family(seed=1)
    mix, stats = complete10()
    alpha, eps = 0.1, 5.0
    xs, vs = pd_trajectory(fam, mix, stats, alpha, eps, iters=200)
    x_star = optimum(fam)
    v_star = dual_optimum(fam, x_star, stats.root)

    cert = reference_certificate()
    energies = energies_along(xs, vs, metric(mix, cert, x_star, v_star))
    rep = contraction_check(energies, cert)
    assert rep["detail"]["violations"] == 0
    assert rep["detail"]["worst_ratio"] <= cert["contraction"]
    assert all(b <= a + 1e-12 for a, b in zip(energies, energies[1:]))

    loose = reference_certificate(beta=10.0, phi=10.0)
    assert contraction_check(
        energies_along(xs, vs, metric(mix, loose, x_star, v_star)), loose)["passed"]


def test_contraction_check_validates_metric_once(monkeypatch):
    fam = identity_family(seed=1)
    mix, stats = complete10()
    xs, vs = pd_trajectory(fam, mix, stats, alpha=0.1, eps=5.0, iters=30)
    x_star = optimum(fam)
    v_star = dual_optimum(fam, x_star, stats.root)
    cert = reference_certificate()
    # Q's eigvalsh runs once, where the metric is built, not per energy.
    calls = []
    real = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda *args: calls.append(args) or real(*args))
    energies = energies_along(xs, vs, metric(mix, cert, x_star, v_star))
    contraction_check(energies, cert)
    assert len(calls) == 1
    monkeypatch.undo()
    q_mat = consensus_penalty_matrix(mix.w, cert["alpha"], cert["eps"])
    assert energies == [
        g_norm_metric(q_mat, x_star, v_star, cert["alpha"])(x, v)
        for x, v in zip(xs, vs)]


def test_contraction_check_rejects_infeasible_and_flags_growth():
    fam = identity_family(seed=1)
    mix, stats = complete10()
    xs, vs = pd_trajectory(fam, mix, stats, alpha=0.1, eps=5.0, iters=30)
    _, bad_stats = complete10()
    infeasible = rate_certificate(UNIT_BOUNDS, bad_stats, alpha=1.0, eps=0.5)
    cert = reference_certificate()
    energy = metric(mix, cert, optimum(fam),
                    dual_optimum(fam, optimum(fam), stats.root))
    with pytest.raises(ValueError):
        contraction_check(energies_along(xs, vs, energy), infeasible)

    rep = contraction_check(energies_along(xs[::-1], vs[::-1], energy), cert)
    assert rep["detail"]["violations"] > 0


# ---------------------------------------------------------------------------
# Rate fitting.
# ---------------------------------------------------------------------------

def test_decay_window_and_fit_geometric():
    errors = 0.5 ** np.arange(60)
    window = decay_window(errors)
    assert window == (1, 28)  # 0.5^27 is the first value at or below 1e-8
    fit = fit_linear_rate(errors, window)
    assert fit.slope == pytest.approx(np.log10(0.5), abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert (fit.start, fit.stop) == window


def test_decay_window_runs_to_end_without_floor():
    errors = 0.5 ** np.arange(10)
    assert decay_window(errors) == (1, 10)


def test_decay_window_needs_enough_points():
    with pytest.raises(ValueError):
        decay_window(np.array([0.9, 0.9, 0.9]))  # never below start
    with pytest.raises(ValueError):
        decay_window(np.array([1.0, 0.4, 1e-9]))  # only two points


def test_fit_linear_rate_edge_cases():
    flat = fit_linear_rate(np.ones(10))
    assert abs(flat.slope) < 1e-12
    assert flat.r_squared == 1.0
    with pytest.raises(ValueError):
        fit_linear_rate(np.array([1.0, 0.0, 0.1]))
    with pytest.raises(ValueError):
        fit_linear_rate(np.array([1.0, 0.5]), (0, 1))
