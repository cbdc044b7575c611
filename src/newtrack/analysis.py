"""Numerical certification of linear convergence.

The certificate turns objective bounds (mu, lip) and network spectra
into an explicit contraction factor for the primal-dual error metric
||x - x*||_Q^2 + ||v - v*||^2 / alpha with Q = eps I - alpha (I - W).
Checks in this module never repair a failed inequality: a violation
falsifies either the implementation or the parameters, so it is
reported as data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class RateCertificate:
    """Feasibility and contraction constants for one parameter choice.

    q_min and q_max bound the spectrum of Q = eps I - alpha (I - W);
    kappa = 2 lip + alpha lam_max bounds the linearization error;
    delta and delta_prime are defined only where their formulas are
    (delta needs q_min > 0, delta_prime needs feasibility).  The
    sufficient condition is q_min > 4 lip^2 / mu.
    """

    mu: float
    lip: float
    alpha: float
    eps: float
    lam_max: float
    lam_min_nz: float
    beta: float
    phi: float
    q_min: float
    q_max: float
    kappa: float
    feasible: bool
    delta: float | None
    delta_prime: float | None

    @property
    def contraction(self) -> float:
        """Certified per-step factor 1 / (1 + delta_prime)."""
        if self.delta_prime is None:
            raise ValueError("certificate is infeasible; no contraction factor")
        return 1.0 / (1.0 + self.delta_prime)


def rate_certificate(bounds, spectra, alpha: float, eps: float,
                     beta: float = 2.0, phi: float = 2.0) -> RateCertificate:
    """Evaluate the sufficient condition and contraction constants.

    beta and phi are free parameters strictly greater than 1; any valid
    pair certifies, larger delta_prime just means a tighter factor.
    """
    if alpha <= 0 or eps <= 0:
        raise ValueError("alpha and eps must be positive")
    if beta <= 1.0 or phi <= 1.0:
        raise ValueError("beta and phi must be greater than 1")
    mu, lip = bounds.mu, bounds.lip
    lam_max = spectra.lambda_max
    lam_min = spectra.lambda_min_nz
    q_min = eps - alpha * lam_max
    q_max = eps
    kappa = 2.0 * lip + alpha * lam_max
    feasible = q_min > 4.0 * lip ** 2 / mu
    delta = 1.0 - 4.0 * lip ** 2 / (mu * q_min) if q_min > 0 else None
    delta_prime = None
    if feasible:
        first = mu * delta / ((1.0 + delta) * (eps + beta * phi * lip ** 2
                                               / (alpha * lam_min)))
        second_num = alpha * delta ** 2 * q_min * lam_min
        second_den = beta * eps ** 2 / (beta - 1.0) \
            + beta * phi * kappa ** 2 / (phi - 1.0)
        delta_prime = min(first, second_num / second_den)
    return RateCertificate(mu=mu, lip=lip, alpha=alpha, eps=eps,
                           lam_max=lam_max, lam_min_nz=lam_min,
                           beta=beta, phi=phi, q_min=q_min, q_max=q_max,
                           kappa=kappa, feasible=feasible, delta=delta,
                           delta_prime=delta_prime)


def best_certificate(bounds, spectra, alpha: float, eps: float,
                     grid: tuple[float, ...] = (1.5, 2.0, 3.0, 5.0, 10.0)
                     ) -> RateCertificate:
    """Largest delta_prime over a small (beta, phi) grid."""
    best = None
    for beta in grid:
        for phi in grid:
            cert = rate_certificate(bounds, spectra, alpha, eps, beta, phi)
            if not cert.feasible:
                return cert
            if best is None or cert.delta_prime > best.delta_prime:
                best = cert
    return best


def consensus_penalty_matrix(w: np.ndarray, alpha: float, eps: float) -> np.ndarray:
    """Q = eps I - alpha (I - W) at network level (n x n)."""
    n = w.shape[0]
    return eps * np.eye(n) - alpha * (np.eye(n) - w)


def dual_optimum(family, x_star: np.ndarray, root: np.ndarray) -> np.ndarray:
    """Optimal dual from stationarity: root @ v* = -grad at consensus.

    Solved by least squares, which lands v* in the range of the root
    (the component along the consensus direction stays zero).
    """
    tiled = np.tile(x_star, (family.n, 1))
    g = family.grad_stack(tiled)
    v_star, *_ = np.linalg.lstsq(root, -g, rcond=None)
    return v_star


def g_norm_metric(q_mat: np.ndarray, x_star: np.ndarray, v_star: np.ndarray,
                  alpha: float) -> Callable[[np.ndarray, np.ndarray], float]:
    """The squared error (x, v) -> ||x - x*||_Q^2 + ||v - v*||^2 / alpha.

    Validates Q once, here: the metric is only a norm when Q is symmetric
    positive definite, which is what the feasibility condition ensures.
    """
    if not np.allclose(q_mat, q_mat.T, rtol=0.0, atol=1e-12):
        raise ValueError("Q must be symmetric")
    if np.linalg.eigvalsh(q_mat)[0] <= 0.0:
        raise ValueError("Q must be positive definite")

    def energy(x: np.ndarray, v: np.ndarray) -> float:
        dx = x - x_star[None, :]
        dv = v - v_star
        return float(np.sum((q_mat @ dx) * dx) + np.sum(dv * dv) / alpha)

    return energy


def g_norm_error(x: np.ndarray, v: np.ndarray, x_star: np.ndarray,
                 v_star: np.ndarray, q_mat: np.ndarray, alpha: float) -> float:
    """Squared error ||x - x*||_Q^2 + ||v - v*||^2 / alpha at one point.

    Rejects a Q that is not symmetric positive definite; to evaluate many
    points under one Q, validate it once with g_norm_metric.
    """
    return g_norm_metric(q_mat, x_star, v_star, alpha)(x, v)


def kkt_residual(grad: np.ndarray, root_x: np.ndarray,
                 root_v: np.ndarray) -> tuple[float, float]:
    """(primal, dual) stationarity residuals at (x, v), from grad = grad(x),
    root_x = root @ x and root_v = root @ v.

    primal = ||root @ x||, the distance from consensus along the
    constraint; dual = ||grad(x) + root @ v||.
    """
    return float(np.linalg.norm(root_x)), float(np.linalg.norm(grad + root_v))


def approximation_error(x0: np.ndarray, x1: np.ndarray, family,
                        w: np.ndarray, alpha: float) -> np.ndarray:
    """Second-order remainder e of one step from x0 to x1.

    e = grad(x0) - grad(x1) + hess(x0)(x1 - x0) - alpha (I - W)(x1 - x0).
    """
    d = x1 - x0
    h0 = family.hess_stack(x0)
    return family.grad_stack(x0) - family.grad_stack(x1) \
        + np.einsum("npq,nq->np", h0, d) - alpha * (d - w @ d)


@dataclass(frozen=True)
class BoundReport:
    """Outcome of an inequality check along a trajectory."""

    violations: int
    worst: float
    detail: dict

    @property
    def passed(self) -> bool:
        return self.violations == 0


def lemma_remainder_check(xs, family, w: np.ndarray, alpha: float,
                          bounds) -> BoundReport:
    """Check ||e^t|| <= kappa ||x^{t+1} - x^t|| along a trajectory.

    kappa = 2 lip + alpha lam_max(I - W).  `worst` is the largest
    observed ratio ||e|| / (kappa ||dx||).
    """
    lam_max = float(np.linalg.eigvalsh(np.eye(w.shape[0]) - w)[-1])
    kappa = 2.0 * bounds.lip + alpha * lam_max
    violations = 0
    worst = 0.0
    for x0, x1 in zip(xs[:-1], xs[1:]):
        e_norm = float(np.linalg.norm(approximation_error(x0, x1, family, w, alpha)))
        allowed = kappa * float(np.linalg.norm(x1 - x0))
        if e_norm > allowed * (1.0 + 1e-10) + 1e-12:
            violations += 1
        if allowed > 0:
            worst = max(worst, e_norm / allowed)
    return BoundReport(violations=violations, worst=worst,
                       detail={"kappa": kappa, "steps": len(xs) - 1})


def stationarity_identity_check(xs, vs, family, w: np.ndarray,
                                root: np.ndarray, alpha: float, eps: float,
                                x_star: np.ndarray,
                                v_star: np.ndarray) -> BoundReport:
    """Exact per-step identity of the primal-dual recursion.

    grad(x^{t+1}) - grad at consensus + root (v^{t+1} - v*)
    + eps (x^{t+1} - x^t) + e^t must vanish; the residual is reported
    relative to the largest gradient magnitude seen.
    """
    tiled = np.tile(x_star, (family.n, 1))
    g_star = family.grad_stack(tiled)
    scale = 1.0
    worst = 0.0
    violations = 0
    for t in range(len(xs) - 1):
        x0, x1 = xs[t], xs[t + 1]
        g1 = family.grad_stack(x1)
        scale = max(scale, float(np.linalg.norm(g1)))
        r = g1 - g_star + root @ (vs[t + 1] - v_star) + eps * (x1 - x0) \
            + approximation_error(x0, x1, family, w, alpha)
        res = float(np.linalg.norm(r)) / scale
        worst = max(worst, res)
        if res > 1e-8:
            violations += 1
    return BoundReport(violations=violations, worst=worst,
                       detail={"steps": len(xs) - 1})


def contraction_check(xs, vs, x_star: np.ndarray, v_star: np.ndarray,
                      w: np.ndarray, cert: RateCertificate) -> BoundReport:
    """Certified geometric decay of the primal-dual error metric.

    Asserts E_{t+1} <= E_t / (1 + delta_prime) + 1e-12 at every step.
    `worst` is the largest ratio E_{t+1} / E_t observed while the energy
    stays above rounding noise.
    """
    if not cert.feasible:
        raise ValueError("contraction check requires a feasible certificate")
    energy = g_norm_metric(consensus_penalty_matrix(w, cert.alpha, cert.eps),
                           x_star, v_star, cert.alpha)
    energies = [energy(x, v) for x, v in zip(xs, vs)]
    bound = cert.contraction
    floor = 1e-14 * max(energies[0], 1.0)
    violations = 0
    worst = 0.0
    for e0, e1 in zip(energies[:-1], energies[1:]):
        if e1 > e0 * bound + 1e-12:
            violations += 1
        if e0 > floor:
            worst = max(worst, e1 / e0)
    return BoundReport(violations=violations, worst=worst,
                       detail={"bound": bound, "energies": energies})


@dataclass(frozen=True)
class RateFit:
    """Least-squares line through log10(error) against iteration."""

    slope: float
    r_squared: float
    start: int
    stop: int


def decay_window(errors, start_below: float = 0.5,
                 stop_below: float = 1e-8) -> tuple[int, int]:
    """Half-open index window where the error decays from start_below
    down to stop_below (or to the last positive entry)."""
    errors = np.asarray(errors, dtype=float)
    start = None
    stop = errors.shape[0]
    for t, e in enumerate(errors):
        if start is None and e <= start_below:
            start = t
        if e <= stop_below:
            stop = t + 1
            break
        if e <= 0:
            stop = t
            break
    if start is None or stop - start < 3:
        raise ValueError("no usable decay window in the error sequence")
    return start, stop


def fit_linear_rate(errors, window: tuple[int, int] | None = None) -> RateFit:
    """Fit log10(errors[t]) = a + slope * t over the given index window.

    All entries in the window must be positive.  A constant sequence
    fits exactly with slope 0.
    """
    errors = np.asarray(errors, dtype=float)
    start, stop = window if window is not None else (0, errors.shape[0])
    seg = errors[start:stop]
    if seg.shape[0] < 2:
        raise ValueError("need at least two points to fit a rate")
    if np.any(seg <= 0):
        raise ValueError("rate fit window contains nonpositive errors")
    t = np.arange(start, stop, dtype=float)
    y = np.log10(seg)
    slope, intercept = np.polyfit(t, y, 1)
    pred = intercept + slope * t
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return RateFit(slope=float(slope), r_squared=r_squared, start=start, stop=stop)
