"""Numerical certification of linear convergence.

The certificate turns objective bounds (mu, lip) and network spectra
into an explicit contraction factor for the primal-dual error metric
||x - x*||_Q^2 + ||v - v*||^2 / alpha with Q = eps I - alpha (I - W).
Checks in this module never repair a failed inequality: a violation
falsifies either the implementation or the parameters, so it is
reported as data.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
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

    def to_doc(self) -> dict:
        """Fields in declaration order, then the contraction factor (None
        when infeasible).  Every field is a scalar, so nothing is copied."""
        doc = {f.name: getattr(self, f.name) for f in fields(self)}
        doc["contraction"] = self.contraction if self.feasible else None
        return doc


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


@dataclass(frozen=True)
class BoundReport:
    """Outcome of an inequality check along a trajectory."""

    violations: int
    worst: float
    detail: dict

    @property
    def passed(self) -> bool:
        return self.violations == 0


def lemma_remainder_check(norms, bounds) -> BoundReport:
    """Check ||e^t|| <= kappa ||x^{t+1} - x^t|| along a trajectory.

    norms are the steps' ||e^t|| and bounds their kappa ||x^{t+1} - x^t||,
    with kappa = 2 lip + alpha lam_max(I - W), the certificate's: a trace's
    remainder_norm and remainder_bound past t = 0.  `worst` is the largest
    observed ratio ||e|| / (kappa ||dx||).
    """
    violations = 0
    worst = 0.0
    for e_norm, allowed in zip(norms, bounds):
        if e_norm > allowed * (1.0 + 1e-10) + 1e-12:
            violations += 1
        if allowed > 0:
            worst = max(worst, e_norm / allowed)
    return BoundReport(violations=violations, worst=worst,
                       detail={"steps": len(norms)})


def stationarity_identity_check(xs, vs, family, w: np.ndarray, root: np.ndarray,
                                alpha: float, eps: float, x_star: np.ndarray,
                                v_star: np.ndarray) -> BoundReport:
    """Exact per-step identity of the primal-dual recursion.

    grad(x^{t+1}) - grad at consensus + root (v^{t+1} - v*)
    + eps (x^{t+1} - x^t) + e^t must vanish, with e^t the step's
    second-order remainder grad(x^t) - grad(x^{t+1}) + hess(x^t) dx
    - alpha (I - W) dx: one gradient per iterate and one Hessian per step.
    The residual is reported relative to the largest gradient magnitude seen.
    """
    g_star = family.grad_stack(np.tile(x_star, (family.n, 1)))
    g0 = family.grad_stack(xs[0])
    scale = 1.0
    worst = 0.0
    violations = 0
    for t in range(len(xs) - 1):
        x0, x1 = xs[t], xs[t + 1]
        g1 = family.grad_stack(x1)
        d = x1 - x0
        e = g0 - g1 + np.einsum("npq,nq->np", family.hess_stack(x0), d) \
            - alpha * (d - w @ d)
        scale = max(scale, float(np.linalg.norm(g1)))
        r = g1 - g_star + root @ (vs[t + 1] - v_star) + eps * d + e
        res = float(np.linalg.norm(r)) / scale
        worst = max(worst, res)
        if res > 1e-8:
            violations += 1
        g0 = g1
    return BoundReport(violations=violations, worst=worst,
                       detail={"steps": len(xs) - 1})


def contraction_check(energies, cert: RateCertificate) -> BoundReport:
    """Certified geometric decay of the primal-dual error metric.

    energies are the squared errors of the metric (g_norm_metric of cert's
    Q) along a trajectory: a feasible trace's gnorm_error.  Asserts
    E_{t+1} <= E_t / (1 + delta_prime) + 1e-12 at every step.  `worst` is
    the largest ratio E_{t+1} / E_t observed while the energy stays above
    rounding noise.
    """
    if not cert.feasible:
        raise ValueError("contraction check requires a feasible certificate")
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
