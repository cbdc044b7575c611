"""Acceptance gate: eleven scenario-level criteria, one test each.

Every test prints a single pass/fail line with the measured quantities
(visible under pytest -s, or in the captured output on failure) and then
asserts.  Records for the expensive presets are computed once per module
and shared across criteria.
"""

import dataclasses
import time

import numpy as np
import pytest

from newtrack import analysis
from newtrack.algorithms import nt_init, nt_step, pd_init, pd_step
from newtrack.analysis import (consensus_penalty_matrix, contraction_check,
                               dual_optimum, g_norm_metric, rate_certificate)
from newtrack.harness import preset, run_experiment, topology_sweep
from newtrack.objectives import (QuadraticFamily, convexity_bounds,
                                 generate_logistic_data, generate_quadratic_set)
from newtrack.topology import (build_topology, metropolis_weights,
                               spectral_stats)
from oracles import (approximation_error, consensus_grads, decay_window,
                     derivative_check, fit_linear_rate, make_logistic, optimum,
                     remainder_report)


def criterion(num: int, ok: bool, desc: str) -> None:
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {desc}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def fig1_record():
    return run_experiment(preset("fig1"))


@pytest.fixture(scope="module")
def fig4_record():
    # The published budget is 20000 iterations; every method crosses 1e-6
    # well before 4000, so the gate caps the budget and stops at 1e-7 to
    # keep the suite fast.  first_below is unaffected by the early stop.
    cfg = dataclasses.replace(preset("fig4-n50"), iters=4000, stop_tol=1e-7)
    return run_experiment(cfg)


@pytest.fixture(scope="module")
def sweep_records():
    return topology_sweep(preset("topo-n10"))


def fig1_problem():
    graph = build_topology("random", 10, tau=0.5, seed=7)
    mix = metropolis_weights(graph)
    data = generate_logistic_data(n=10, m=12, p=8, reg=1e-3, seed=1)
    return data, mix


def test_criterion_01_formulation_equivalence():
    tic = time.perf_counter()

    def worst_gap(fam, mix, alpha, eps):
        root = spectral_stats(mix).root
        nt = nt_init(fam, mix, alpha, eps)
        pd = pd_init(fam, mix, root, alpha, eps)
        gap = 0.0
        for _ in range(100):
            nt = nt_step(nt, fam)
            pd = pd_step(pd, fam)
            gap = max(gap, float(np.max(np.abs(nt.x - pd.x))))
        return gap

    quad_gap = worst_gap(generate_quadratic_set(n=3, p=2, seed=1),
                         metropolis_weights(build_topology("cycle", 3)),
                         0.9, 1.1)
    fam, mix = fig1_problem()
    fig1_gap = worst_gap(fam, mix, 3.3, 3.0)
    elapsed = time.perf_counter() - tic
    ok = quad_gap < 1e-8 and fig1_gap < 1e-8 and elapsed < 5.0
    criterion(1, ok, "q-form and primal-dual form agree over 100 iterations "
                     f"(quadratic gap {quad_gap:.2e}, logistic gap "
                     f"{fig1_gap:.2e}, {elapsed:.2f}s)")


def test_criterion_02_conservation_identity(fig1_record):
    residuals = fig1_record.traces["nt"].tracking_residual[:1001]
    worst = max(residuals)
    ok = len(residuals) == 1001 and worst < 1e-9
    criterion(2, ok, "tracked direction sum (sum q = sum g) follows the "
                     "gradient sum for 1000 iterations (worst residual "
                     f"{worst:.2e})")


def test_criterion_03_certified_contraction():
    # mu = lip = 1 exactly: every node is f_i(x) = ||x||^2/2 + b_i.x.
    rng = np.random.default_rng(0)
    fam = QuadraticFamily(np.tile(np.eye(3), (10, 1, 1)),
                          rng.standard_normal((10, 3)))
    mix = metropolis_weights(build_topology("complete", 10))
    stats = spectral_stats(mix)
    alpha, eps = 0.1, 5.0
    cert = rate_certificate(convexity_bounds(fam), stats, alpha, eps,
                            beta=2.0, phi=2.0)

    st = pd_init(fam, mix, stats.root, alpha, eps)
    xs, vs = [st.x], [st.v]
    for _ in range(200):
        st = pd_step(st, fam)
        xs.append(st.x)
        vs.append(st.v)
    x_star = optimum(fam)
    v_star = dual_optimum(consensus_grads(fam, x_star), stats.root)
    energy = g_norm_metric(consensus_penalty_matrix(mix.w, alpha, eps),
                           x_star, v_star, alpha)
    rep = contraction_check([energy(x, v) for x, v in zip(xs, vs)], cert)

    ok = (cert["feasible"] and abs(cert["delta"] - 0.18367) < 5e-6
          and rep["detail"]["violations"] == 0)
    criterion(3, ok, f"metric error contracts by 1/(1+delta') in all 200 "
                     f"iterations (delta {cert['delta']:.5f}, violations "
                     f"{rep['detail']['violations']}, worst ratio "
                     f"{rep['detail']['worst_ratio']:.6f})")


def test_criterion_04_remainder_bound():
    def run_nt(fam, mix, alpha, eps, iters):
        # The q-form's iterates and the worst gap between its remainder,
        # eps u0 - (q1 - alpha (I - W) x1), and the Hessian-based one.
        d = mix.disagreement
        st = nt_init(fam, mix, alpha, eps)
        xs, gap = [st.x], 0.0
        for _ in range(iters):
            nxt = nt_step(st, fam)
            e = eps * st.u - (nxt.q - alpha * (d @ nxt.x))
            ref = approximation_error(st.x, nxt.x, fam, mix.w, alpha)
            gap = max(gap, float(np.max(np.abs(e - ref))))
            st = nxt
            xs.append(st.x)
        return xs, gap

    qfam = generate_quadratic_set(n=5, p=3, seed=2)
    qmix = metropolis_weights(build_topology("cycle", 5))
    qxs, qgap = run_nt(qfam, qmix, 0.8, 1.2, 100)
    qrep = remainder_report(qxs, qfam, qmix.w, 0.8, convexity_bounds(qfam))

    lfam, lmix = fig1_problem()
    lxs, lgap = run_nt(lfam, lmix, 3.3, 3.0, 100)
    lrep = remainder_report(lxs, lfam, lmix.w, 3.3, convexity_bounds(lfam))

    ok = qrep["detail"]["violations"] == 0 and lrep["detail"]["violations"] == 0 \
        and qgap < 1e-10 and lgap < 1e-10
    criterion(4, ok, "second-order remainder stays within kappa ||dx|| over "
                     f"100 iterations (worst ratios quadratic {qrep['detail']['worst']:.3f}, "
                     f"logistic {lrep['detail']['worst']:.3f}) and is the q-form's own "
                     f"(worst gaps {qgap:.1e}, {lgap:.1e})")


def test_criterion_05_spectral_reproduction():
    published = {"line": (1.30, 0.03), "cycle": (1.33, 0.12),
                 "complete": (1.00, 1.00)}
    derived = {"line": (1.3007, 0.0326), "cycle": (1.3333, 0.1273),
               "complete": (1.0000, 1.0000)}
    got = {}
    ok = True
    for kind in published:
        stats = spectral_stats(metropolis_weights(build_topology(kind, 10)))
        got[kind] = (stats.lambda_max, stats.lambda_min_nz)
        # printed table truncates at two decimals (0.1273 appears as 0.12),
        # so agreement means within one unit in the last printed place
        ok &= abs(stats.lambda_max - published[kind][0]) < 0.01
        ok &= abs(stats.lambda_min_nz - published[kind][1]) < 0.01
        ok &= abs(stats.lambda_max - derived[kind][0]) < 5e-5
        ok &= abs(stats.lambda_min_nz - derived[kind][1]) < 5e-5
    summary = ", ".join(f"{k} ({v[0]:.4f}, {v[1]:.4f})" for k, v in got.items())
    criterion(5, ok, f"Metropolis spectra match the published table: {summary}")


def test_criterion_06_linear_convergence(fig1_record):
    errors = fig1_record.traces["nt"].rel_error
    cross = fig1_record.traces["nt"].first_below(1e-8)
    fit = fit_linear_rate(errors, decay_window(errors))
    ok = (cross is not None and cross <= 2000 and fit.slope < 0
          and fit.r_squared >= 0.99)
    criterion(6, ok, f"single-method preset reaches 1e-8 at iteration "
                     f"{cross} with log-linear decay (slope {fit.slope:.4f}, "
                     f"R^2 {fit.r_squared:.5f})")


def test_criterion_07_baseline_agreement(fig4_record):
    norm_tile = float(np.linalg.norm(fig4_record.x_star)) * np.sqrt(50)
    crossings = {}
    dists = {}
    ok = True
    for name in ("gt", "extra", "dlm"):
        trace = fig4_record.traces[name]
        crossings[name] = trace.first_below(1e-6)
        ok &= crossings[name] is not None and crossings[name] <= 20000
        # rel_error is Frobenius distance to the tiled reference, scaled;
        # the per-node distance to x* is bounded by the unscaled value.
        dists[name] = trace.rel_error[-1] * norm_tile
        ok &= dists[name] <= 1e-5
    pair_worst = max(dists[a] + dists[b]
                     for a in dists for b in dists if a < b)
    ok &= pair_worst <= 1e-5
    criterion(7, ok, "all baselines reach 1e-6 and the reference optimum "
                     f"(iterations {crossings}, worst cross-distance "
                     f"{pair_worst:.2e})")


def test_criterion_08_iteration_ordering(fig4_record):
    crossings = {name: fig4_record.traces[name].first_below(1e-6)
                 for name in ("nt", "gt", "extra", "dlm")}
    ok = all(v is not None for v in crossings.values())
    ok = ok and all(crossings["nt"] < crossings[b]
                    for b in ("gt", "extra", "dlm"))
    criterion(8, ok, "curvature tracking needs the fewest iterations to "
                     f"1e-6: {crossings}")


def test_criterion_09_topology_ordering(sweep_records):
    lam = {}
    crossings = {}
    slopes = {}
    for kind, rec in sweep_records.items():
        lam[kind] = rec.spectra["lambda_min_nz"]
        errors = rec.traces["nt"].rel_error
        crossings[kind] = rec.traces["nt"].first_below(1e-8)
        slopes[kind] = fit_linear_rate(errors, decay_window(errors)).slope
    ok = all(v is not None for v in crossings.values())
    ok = ok and all(crossings["complete"] < crossings[k]
                    for k in ("line", "cycle"))
    by_connectivity = sorted(lam, key=lam.get)  # ascending lambda-hat-min
    ordered_slopes = [slopes[k] for k in by_connectivity]
    ok = ok and all(b < a for a, b in zip(ordered_slopes, ordered_slopes[1:]))
    slope_text = ", ".join(f"{k}: {slopes[k]:.4f}" for k in slopes)
    criterion(9, ok, "better-connected topologies converge faster "
                     f"(iterations to 1e-8 {crossings}, slopes {slope_text})")


def test_criterion_10_scalar_recursion():
    # Single node, f(x) = (x - 1)^2 / 2, eps = 1: the iterates halve the
    # distance to 1 every step.
    fam = QuadraticFamily(np.ones((1, 1, 1)), np.array([[-1.0]]))
    single = metropolis_weights(build_topology("complete", 1))  # I - W = 0
    st = nt_init(fam, single, alpha=1.0, eps=1.0)
    iterates = [st.x[0, 0]]
    for _ in range(20):
        st = nt_step(st, fam)
        iterates.append(st.x[0, 0])
    head_ok = np.allclose(iterates[:4], [0.0, 0.5, 0.75, 0.875], atol=1e-12)
    errors = np.abs(np.asarray(iterates) - 1.0)
    fit = fit_linear_rate(errors)
    rate_ok = abs(fit.slope - np.log10(0.5)) <= 1e-6
    ok = bool(head_ok and rate_ok)
    head = ", ".join(f"{v:.4f}" for v in iterates[:4])
    criterion(10, ok, f"scalar iterates follow 1 - 2^-t (first four {head}, "
                      f"fitted rate {fit.slope:.8f})")


def test_criterion_11_derivative_checks():
    ds = generate_logistic_data(n=5, m=10, p=6, reg=1e-3, seed=13)
    rng = np.random.default_rng(13)
    worst_g = worst_h = 0.0
    ok = True
    for k in range(20):
        obj = make_logistic(ds, k % ds.n)
        x = rng.standard_normal(ds.p) * rng.uniform(0.1, 3.0)
        rep = derivative_check(obj, x, seed=k)
        worst_g = max(worst_g, rep.grad_error)
        worst_h = max(worst_h, rep.hess_error)
        ok &= rep.grad_error < 1e-5 and rep.hess_error < 1e-4
    criterion(11, ok, "gradient and Hessian pass finite-difference checks "
                      f"at 20 points (worst {worst_g:.2e} / {worst_h:.2e})")
