"""Numerical certification of linear convergence.

The certificate turns objective bounds (mu, lip) and network spectra
into an explicit contraction factor for the primal-dual error metric
||x - x*||_Q^2 + ||v - v*||^2 / alpha with Q = eps I - alpha (I - W).
Checks in this module never repair a failed inequality: a violation
falsifies either the implementation or the parameters, so it is
reported as data.
"""

from __future__ import annotations

import math
from typing import Callable, TypedDict

import numpy as np

from .algorithms import norm


class Certificate(TypedDict):
    """Feasibility and contraction constants: the inputs, then what follows."""

    mu: float
    lip: float
    alpha: float
    eps: float
    lam_max: float
    lam_min_nz: float
    beta: float
    phi: float
    q_min: float  # q_min and q_max bound the spectrum of Q = eps I - alpha (I - W)
    q_max: float
    kappa: float  # 2 lip + alpha lam_max: bounds the linearization error
    feasible: bool  # the sufficient condition q_min > 4 lip^2 / mu
    delta: float | None  # None unless q_min > 0
    delta_prime: float | None  # None unless feasible
    contraction: float | None  # the certified per-step factor 1 / (1 + delta_prime)


def rate_certificate(bounds, spectra, alpha: float, eps: float,
                     beta: float = 2.0, phi: float = 2.0) -> Certificate:
    """The certificate document for one parameter choice.

    beta and phi are free parameters strictly greater than 1; any valid
    pair certifies, larger delta_prime just means a tighter factor.
    """
    mu, lip = bounds.mu, bounds.lip
    lam_max, lam_min = spectra.lambda_max, spectra.lambda_min_nz
    for name, value in (("mu", mu), ("lip", lip), ("alpha", alpha), ("eps", eps),
                        ("lambda_max", lam_max), ("lambda_min_nz", lam_min),
                        ("beta", beta), ("phi", phi)):
        if not math.isfinite(value):
            raise ValueError(f"{name}: must be finite, got {value}")
    if alpha <= 0 or eps <= 0:
        raise ValueError("alpha and eps must be positive")
    if beta <= 1.0 or phi <= 1.0:
        raise ValueError("beta and phi must be greater than 1")
    if not 0.0 < lam_min <= lam_max:
        raise ValueError(f"lambda_min_nz: must be in (0, lambda_max = {lam_max}], "
                         f"got {lam_min}")
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
    return Certificate(mu=mu, lip=lip, alpha=alpha, eps=eps, lam_max=lam_max,
                       lam_min_nz=lam_min, beta=beta, phi=phi, q_min=q_min,
                       q_max=q_max, kappa=kappa, feasible=feasible, delta=delta,
                       delta_prime=delta_prime,
                       contraction=None if delta_prime is None else 1.0 / (1.0 + delta_prime))


def consensus_penalty_matrix(w: np.ndarray, alpha: float, eps: float) -> np.ndarray:
    """Q = eps I - alpha (I - W) at network level (n x n)."""
    n = w.shape[0]
    return eps * np.eye(n) - alpha * (np.eye(n) - w)


def dual_optimum(g_star: np.ndarray, root: np.ndarray) -> np.ndarray:
    """Optimal dual from stationarity: root @ v* = -g*, with g* the (n, p)
    node gradients at x* that algorithms.centralized_reference returns.

    Solved by least squares, which lands v* in the range of the root
    (the component along the consensus direction stays zero).
    """
    v_star, *_ = np.linalg.lstsq(root, -g_star, rcond=None)
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


def _ratio_check(nums, dens, scale: float) -> tuple[int, float]:
    """Violations of num <= den * scale + 1e-12 over paired steps, and the
    largest ratio num / den among steps whose den stays above rounding
    noise, 1e-14 max(dens[0], 1)."""
    floor = 1e-14 * max([*dens[:1], 1.0])
    violations = 0
    worst = 0.0
    for num, den in zip(nums, dens):
        if num > den * scale + 1e-12:
            violations += 1
        if den > floor:
            worst = max(worst, num / den)
    return violations, worst


def lemma_remainder_check(norms, bounds) -> dict:
    """Check ||e^t|| <= kappa ||x^{t+1} - x^t|| along a trajectory.

    norms are the steps' ||e^t|| and bounds their kappa ||x^{t+1} - x^t||,
    with kappa = 2 lip + alpha lam_max(I - W), the certificate's, as
    check's replay of nt derives them step by step.  Returns the report
    entry; `worst` is the largest ratio ||e|| / (kappa ||dx||) over the
    steps whose bound stays above rounding noise.
    """
    violations, worst = _ratio_check(norms, bounds, 1.0 + 1e-10)
    return {"passed": violations == 0,
            "detail": {"violations": violations, "worst": worst}}


def stationarity_identity_check(states, family, g_star: np.ndarray,
                                v_star: np.ndarray) -> dict:
    """Exact per-step identity of the primal-dual recursion along states,
    a trajectory of algorithms.PrimalDualState.

    grad(x^{t+1}) - g* + root (v^{t+1} - v*) + eps (x^{t+1} - x^t) + e^t
    must vanish, with g* the node gradients at x* and e^t the step's
    second-order remainder grad(x^t) - grad(x^{t+1}) + hess(x^t) dx
    - alpha (I - W) dx: W, the root and the steps are the first state's,
    each iterate's gradient and curvature weights its own state's, and
    one Hessian per step comes from the weights.
    Returns the report entry; `worst` is the residual relative to the
    largest gradient magnitude seen, and must stay within 1e-8.
    """
    w, root, alpha, eps = states[0].w, states[0].root, states[0].alpha, states[0].eps
    scale = 1.0
    worst = 0.0
    for s0, s1 in zip(states, states[1:]):
        d = s1.x - s0.x
        e = s0.grad - s1.grad + np.einsum("npq,nq->np", family.hess_blocks(s0.curve), d) \
            - alpha * (d - w @ d)
        scale = max(scale, norm(s1.grad))
        r = s1.grad - g_star + root @ (s1.v - v_star) + eps * d + e
        worst = max(worst, norm(r) / scale)
    return {"passed": worst <= 1e-8, "detail": {"worst": worst}}


def contraction_check(energies, cert: Certificate) -> dict:
    """Certified geometric decay of the primal-dual error metric.

    energies are the squared errors of the metric (g_norm_metric of cert's
    Q) along a trajectory: a feasible trace's gnorm_error.  Asserts
    E_{t+1} <= E_t / (1 + delta_prime) + 1e-12 at every step.  Returns the
    report entry; `worst_ratio` is the largest ratio E_{t+1} / E_t observed
    while the energy stays above rounding noise.
    """
    if not cert["feasible"]:
        raise ValueError("contraction check requires a feasible certificate")
    bound = cert["contraction"]
    violations, worst = _ratio_check(energies[1:], energies[:-1], bound)
    return {"passed": violations == 0,
            "detail": {"violations": violations, "worst_ratio": worst,
                       "bound": bound}}
