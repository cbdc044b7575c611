"""Objective families: values, derivatives, bounds, digests.

Oracle values for the logistic loss are computed directly from the data
arrays in the tests (sum of softplus terms, expit-weighted feature sums)
and by the per-node objectives of tests/oracles.py, independently of the
vectorized implementations under test.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.special import expit

from newtrack import objectives
from newtrack.algorithms import centralized_reference
from newtrack.objectives import (LogisticFamily, ObjectiveBounds,
                                 QuadraticFamily, convexity_bounds,
                                 generate_logistic_data,
                                 generate_quadratic_set, lower_band)
from oracles import (QuadraticObjective, derivative_check, make_logistic,
                     node, optimum, softplus)


def small_dataset(seed=1):
    return generate_logistic_data(n=4, m=6, p=3, reg=1e-2, seed=seed)


# ---------------------------------------------------------------------------
# Logistic loss values and gradients.
# ---------------------------------------------------------------------------

def test_logistic_value_at_zero_is_m_log2():
    ds = small_dataset()
    for i in range(ds.n):
        obj = make_logistic(ds, i)
        assert obj.value(np.zeros(ds.p)) == pytest.approx(ds.m * np.log(2.0),
                                                          rel=1e-14)


def test_logistic_grad_at_zero_oracle():
    ds = small_dataset()
    for i in range(ds.n):
        obj = make_logistic(ds, i)
        # expit(0) = 1/2 for every sample
        oracle = -0.5 * (ds.labels[i][:, None] * ds.features[i]).sum(axis=0)
        assert_allclose(obj.grad(np.zeros(ds.p)), oracle, atol=1e-15)


def test_logistic_single_sample_grad_frozen():
    ds = LogisticFamily(features=np.array([[[1.0, 0.0]]]),
                        labels=np.array([[1.0]]), reg=0.0)
    obj = make_logistic(ds, 0)
    g = obj.grad(np.array([10.0, 0.0]))
    assert_allclose(g, [-expit(-10.0), 0.0], atol=1e-18)
    assert obj.value(np.array([10.0, 0.0])) == pytest.approx(
        np.log1p(np.exp(-10.0)), rel=1e-12)


def test_logistic_hessian_floor_is_ridge():
    ds = small_dataset()
    rng = np.random.default_rng(0)
    for i in range(ds.n):
        obj = make_logistic(ds, i)
        x = rng.standard_normal(ds.p)
        lam = np.linalg.eigvalsh(obj.hess(x))
        assert lam[0] >= ds.reg / ds.n - 1e-15


def test_stacked_ops_match_per_node():
    fam = small_dataset()
    rng = np.random.default_rng(3)
    x = rng.standard_normal((fam.n, fam.p))
    g = fam.grad_stack(x)
    h = fam.hess_stack(x)
    for i in range(fam.n):
        obj = node(fam, i)
        assert_allclose(g[i], obj.grad(x[i]), atol=1e-14)
        assert_allclose(h[i], obj.hess(x[i]), atol=1e-14)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 6), p=st.integers(1, 9), extra=st.integers(0, 40),
       log_eps=st.floats(-4.0, 1.0), log_scale=st.floats(-12.0, 0.0),
       seed=st.integers(0, 2 ** 16))
def test_hess_band_is_the_banded_shifted_hessian(n, p, extra, log_eps,
                                                 log_scale, seed):
    # One product of the weights with the cached sample products gives the
    # band of hess_blocks + eps I within rounding (it sums c_j (F_jr F_jc)
    # where hess_blocks sums F_jr (c_j F_jc)); the quadratic band is exact.
    m = p + extra
    fam = generate_logistic_data(n=n, m=m, p=p, reg=1e-3, seed=seed)
    rng = np.random.default_rng(seed)
    curve = 0.25 * 10.0 ** log_scale * rng.uniform(size=(n, m))
    eps = 10.0 ** log_eps
    expected = lower_band(fam.hess_blocks(curve))
    expected[:, :, 0] += eps
    got = fam.hess_band(curve, eps)
    assert got.shape == (n, p, p)
    assert np.linalg.norm(got - expected) <= 1e-14 * np.linalg.norm(expected)
    quad = generate_quadratic_set(n=n, p=p, seed=seed)
    expected = lower_band(quad.hess_stack(None))
    expected[:, :, 0] += eps
    assert np.array_equal(quad.hess_band(None, eps), expected)
    # The cached band stays as built: each call shifts a copy.
    assert np.array_equal(quad.hess_band(None, eps), expected)


def test_hess_band_past_the_cache_budget_is_the_old_band(monkeypatch):
    # A family whose sample products would exceed PAIRS_BYTES caches none
    # and bands hess_blocks + eps I bit for bit; one within it caches them.
    ds = generate_logistic_data(n=3, m=7, p=4, reg=1e-3, seed=5)
    curve = 0.25 * np.random.default_rng(5).uniform(size=(3, 7))
    expected = lower_band(ds.hess_blocks(curve))
    expected[:, :, 0] += 0.7
    assert ds._pairs.shape == (3, 7, 16)
    monkeypatch.setattr(objectives, "PAIRS_BYTES", 3 * 7 * 16 * 8 - 1)
    fam = LogisticFamily(ds.features, ds.labels, ds.reg)
    assert fam._pairs is None
    assert np.array_equal(fam.hess_band(curve, 0.7), expected)


def test_totals_are_sums_of_nodes():
    fam = small_dataset()
    x = np.full(fam.p, 0.3)
    g = sum(node(fam, i).grad(x) for i in range(fam.n))
    h = sum(node(fam, i).hess(x) for i in range(fam.n))
    assert_allclose(fam.grad_curvature_total(x)[0], g, atol=1e-13)
    assert_allclose(fam.hess_total(x, fam.grad_curvature_total(x)[1]), h, atol=1e-13)


def test_label_flip_symmetry():
    # The loss depends on labels only through y * (o . x), so flipping
    # all labels and negating all features leaves the objective unchanged.
    ds = small_dataset()
    flipped = LogisticFamily(features=-ds.features, labels=-ds.labels,
                             reg=ds.reg)
    rng = np.random.default_rng(9)
    for _ in range(5):
        x = rng.standard_normal(ds.p)
        for i in range(ds.n):
            a, b = make_logistic(ds, i), make_logistic(flipped, i)
            assert a.value(x) == pytest.approx(b.value(x), rel=1e-14)
            assert_allclose(a.grad(x), b.grad(x), atol=1e-14)


def test_softplus_extremes():
    assert softplus(np.array(1000.0)) == 1000.0
    assert softplus(np.array(-1000.0)) == 0.0
    ds = small_dataset()
    obj = make_logistic(ds, 0)
    x = np.full(ds.p, 1e3)
    assert np.isfinite(obj.value(x))
    assert np.all(np.isfinite(obj.grad(x)))
    assert np.all(np.isfinite(obj.hess(x)))


# ---------------------------------------------------------------------------
# Quadratics.
# ---------------------------------------------------------------------------

def test_quadratic_value_grad_hess():
    a = np.array([[2.0, 0.5], [0.5, 1.0]])
    b = np.array([1.0, -1.0])
    obj = QuadraticObjective(a, b)
    x = np.array([0.3, -0.7])
    assert obj.value(x) == pytest.approx(0.5 * x @ a @ x + b @ x, rel=1e-15)
    assert_allclose(obj.grad(x), a @ x + b, atol=1e-15)
    assert_allclose(obj.hess(x), a, atol=0.0)


def test_quadratic_validation():
    with pytest.raises(ValueError):
        QuadraticObjective(np.array([[1.0, 0.1], [0.0, 1.0]]), np.zeros(2))
    with pytest.raises(ValueError):
        QuadraticObjective(-np.eye(2), np.zeros(2))
    with pytest.raises(ValueError):
        QuadraticObjective(np.eye(2), np.zeros(3))


@pytest.mark.parametrize("case", ["asymmetric", "indefinite", "short_b"])
def test_quadratic_family_validation(case):
    # The family checks the whole stack at once: one bad node of four
    # fails it, with the message its node alone would give.
    message = {"asymmetric": "A must be symmetric",
               "indefinite": "A must be positive definite",
               "short_b": "need A with shape (n, p, p) and b with shape (n, p)"}[case]
    fam = generate_quadratic_set(n=4, p=3, seed=2)
    a, b = fam.a.copy(), fam.b
    if case == "asymmetric":
        a[2, 0, 1] += 1e-6
    elif case == "indefinite":
        a[3] = np.diag([1.0, -0.5, 2.0])
    else:
        b = b[:, :2]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        QuadraticFamily(a, b)
    QuadraticFamily(fam.a, fam.b)


def test_quadratic_family_optimum_matches_reference():
    fam = generate_quadratic_set(n=3, p=4, seed=3)
    x_star = optimum(fam)
    assert_allclose(fam.grad_curvature_total(x_star)[0], np.zeros(4), atol=1e-12)
    ref = centralized_reference(fam, tol=1e-13)
    assert np.max(np.abs(ref - x_star)) < 1e-10
    assert np.linalg.norm(fam.grad_curvature_total(ref)[0]) <= 1e-13


def test_generate_quadratic_set_eig_range():
    fam = generate_quadratic_set(n=5, p=6, seed=0)
    for i in range(fam.n):
        lam = np.linalg.eigvalsh(fam.a[i])
        assert lam[0] >= 0.5 - 1e-12
        assert lam[-1] <= 2.0 + 1e-12
    again = generate_quadratic_set(n=5, p=6, seed=0)
    assert np.array_equal(fam.a, again.a)
    assert np.array_equal(fam.b, again.b)


# ---------------------------------------------------------------------------
# Convexity bounds.
# ---------------------------------------------------------------------------

def test_logistic_bounds_hold_at_sampled_points():
    fam = generate_logistic_data(n=5, m=10, p=4, reg=1e-3, seed=2)
    bounds = convexity_bounds(fam)
    assert bounds.mu == pytest.approx(fam.reg / fam.n, rel=1e-15)
    rng = np.random.default_rng(7)
    for _ in range(20):
        x = rng.standard_normal(fam.p) * rng.uniform(0.1, 5.0)
        for i in range(fam.n):
            lam = np.linalg.eigvalsh(node(fam, i).hess(x))
            assert lam[0] >= bounds.mu - 1e-9
            assert lam[-1] <= bounds.lip + 1e-9


def test_logistic_lip_at_least_curvature_at_zero():
    # At x = 0 the logistic curvature factor is exactly 1/4, so the bound
    # must dominate the largest local Hessian eigenvalue there.
    fam = generate_logistic_data(n=5, m=10, p=4, reg=1e-3, seed=2)
    bounds = convexity_bounds(fam)
    worst = max(np.linalg.eigvalsh(node(fam, i).hess(np.zeros(fam.p)))[-1]
                for i in range(fam.n))
    assert bounds.lip >= worst - 1e-12
    assert bounds.lip == pytest.approx(worst, rel=1e-12)


@pytest.mark.parametrize("m, p", [(4, 9), (9, 4), (6, 6)])
def test_logistic_bounds_match_per_node_loop(m, p):
    ds = generate_logistic_data(n=7, m=m, p=p, reg=1e-3, seed=3)
    gram_max = max(np.linalg.eigvalsh(f.T @ f)[-1] for f in ds.features)
    bounds = convexity_bounds(ds)
    assert bounds.mu == ds.reg / ds.n
    assert bounds.lip == pytest.approx(ds.reg / ds.n + 0.25 * gram_max,
                                       rel=1e-12)


def test_quadratic_bounds_are_extreme_eigs():
    c = 1.7
    fam = QuadraticFamily(np.tile(c * np.eye(3), (4, 1, 1)), np.zeros((4, 3)))
    bounds = convexity_bounds(fam)
    assert bounds.mu == pytest.approx(c, rel=1e-15)
    assert bounds.lip == pytest.approx(c, rel=1e-15)
    fam2 = generate_quadratic_set(n=6, p=5, seed=4)
    b2 = convexity_bounds(fam2)
    lows = [np.linalg.eigvalsh(fam2.a[i])[0] for i in range(6)]
    highs = [np.linalg.eigvalsh(fam2.a[i])[-1] for i in range(6)]
    assert b2.mu == pytest.approx(min(lows), rel=1e-14)
    assert b2.lip == pytest.approx(max(highs), rel=1e-14)


def test_bounds_validation_and_unknown_family():
    with pytest.raises(ValueError):
        ObjectiveBounds(mu=0.0, lip=1.0)
    with pytest.raises(ValueError):
        ObjectiveBounds(mu=2.0, lip=1.0)
    with pytest.raises(TypeError):
        convexity_bounds(object())


# ---------------------------------------------------------------------------
# Derivative checks.
# ---------------------------------------------------------------------------

def test_derivative_check_quadratic_near_exact():
    obj = QuadraticObjective(np.array([[2.0, 0.3], [0.3, 1.0]]),
                             np.array([0.5, -0.2]))
    rep = derivative_check(obj, np.array([0.4, 1.1]), seed=1)
    assert rep.grad_ok and rep.hess_ok
    assert rep.grad_error < 1e-9
    assert rep.hess_error < 1e-9


def test_derivative_check_flags_wrong_gradient():
    class Corrupted:
        def __init__(self, inner):
            self.inner = inner

        def value(self, x):
            return self.inner.value(x)

        def grad(self, x):
            return self.inner.grad(x) + 0.01

        def hess(self, x):
            return self.inner.hess(x)

    obj = Corrupted(QuadraticObjective(np.eye(2), np.zeros(2)))
    rep = derivative_check(obj, np.array([1.0, -1.0]), seed=1)
    assert not rep.grad_ok


def test_derivative_check_step_window():
    obj = QuadraticObjective(np.eye(2), np.zeros(2))
    with pytest.raises(ValueError):
        derivative_check(obj, np.zeros(2), step=1e-8)
    with pytest.raises(ValueError):
        derivative_check(obj, np.zeros(2), step=1e-3)


def test_derivative_check_logistic():
    ds = small_dataset()
    rep = derivative_check(make_logistic(ds, 0), np.array([0.2, -0.4, 0.9]),
                           seed=5)
    assert rep.grad_ok and rep.hess_ok


# ---------------------------------------------------------------------------
# Dataset generation and serialization.
# ---------------------------------------------------------------------------

def test_generator_determinism_and_labels():
    a = generate_logistic_data(n=10, m=12, p=8, reg=1e-3, seed=1)
    b = generate_logistic_data(n=10, m=12, p=8, reg=1e-3, seed=1)
    c = generate_logistic_data(n=10, m=12, p=8, reg=1e-3, seed=2)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)
    assert not np.array_equal(a.features, c.features)
    assert set(np.unique(a.labels)) == {-1.0, 1.0}


def test_generator_feature_scale_contract():
    # Entries are N(0, 1/p): every sample has unit expected square norm,
    # so local smoothness stays O(1) as the dimension grows.
    for p in (4, 40):
        ds = generate_logistic_data(n=20, m=30, p=p, reg=0.0, seed=6)
        mean_sq = float(np.mean(np.sum(ds.features ** 2, axis=2)))
        assert abs(mean_sq - 1.0) < 0.1


def test_dataset_validation():
    with pytest.raises(ValueError):
        LogisticFamily(features=np.zeros((2, 3)), labels=np.ones((2, 3)),
                       reg=0.0)
    with pytest.raises(ValueError):
        LogisticFamily(features=np.zeros((2, 3, 1)),
                       labels=np.full((2, 3), 0.5), reg=0.0)
    with pytest.raises(ValueError):
        LogisticFamily(features=np.zeros((2, 3, 1)), labels=np.ones((2, 3)),
                       reg=-1.0)


def test_dataset_digest():
    ds = generate_logistic_data(n=3, m=4, p=2, reg=1e-2, seed=8)
    again = generate_logistic_data(n=3, m=4, p=2, reg=1e-2, seed=8)
    assert again.digest() == ds.digest()
    assert ds.digest().startswith("sha256:")
    bumped = LogisticFamily(features=ds.features + 1e-12, labels=ds.labels,
                            reg=ds.reg)
    assert bumped.digest() != ds.digest()


def test_family_digests():
    # A family's digest names its data: a logistic family built afresh from
    # the same arrays shares it, and the quadratic one hashes A, then b, and
    # moves with either.
    ds = generate_logistic_data(n=3, m=4, p=2, reg=1e-2, seed=8)
    again = LogisticFamily(ds.features, ds.labels, ds.reg)
    assert again.digest() == ds.digest()
    fam = generate_quadratic_set(n=3, p=4, seed=3)
    assert fam.digest() == generate_quadratic_set(n=3, p=4, seed=3).digest()
    assert fam.digest().startswith("sha256:")
    assert QuadraticFamily(fam.a, fam.b + 1e-12).digest() != fam.digest()
    assert QuadraticFamily(fam.a + 1e-12, fam.b).digest() != fam.digest()
