"""Per-node oracles for the stacked families: single-node objectives, the
quadratic aggregate's closed-form minimizer, a central-difference check
of each derivative against the one below it, and the Hessian-based
second-order remainder of a step, and a log-linear fit of an error
sequence's decay rate."""

from collections import namedtuple
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from newtrack.analysis import lemma_remainder_check
from newtrack.objectives import LogisticFamily


def softplus(z: np.ndarray) -> np.ndarray:
    # log(1 + exp(z)) without overflow for large |z|.
    return np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))


class LogisticObjective:
    """Single-node regularized logistic loss.

    f(x) = reg/(2 n_total) ||x||^2 + sum_j log(1 + exp(-(o_j' x) y_j)).
    """

    def __init__(self, features: np.ndarray, labels: np.ndarray,
                 reg: float, n_total: int):
        self.features = np.asarray(features, dtype=float)
        self.labels = np.asarray(labels, dtype=float)
        self.ridge = reg / n_total
        self.p = self.features.shape[1]

    def value(self, x: np.ndarray) -> float:
        z = (self.features @ x) * self.labels
        return 0.5 * self.ridge * float(x @ x) + float(np.sum(softplus(-z)))

    def grad(self, x: np.ndarray) -> np.ndarray:
        s = expit(-(self.features @ x) * self.labels)
        return self.ridge * x - self.features.T @ (self.labels * s)

    def hess(self, x: np.ndarray) -> np.ndarray:
        s = expit(-(self.features @ x) * self.labels)
        return self.ridge * np.eye(self.p) + \
            (self.features * (s * (1.0 - s))[:, None]).T @ self.features


class QuadraticObjective:
    """Single-node quadratic f(x) = x'Ax/2 + b'x with symmetric PD A."""

    def __init__(self, a: np.ndarray, b: np.ndarray):
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or b.shape != (a.shape[0],):
            raise ValueError("need square A and matching b")
        if not np.allclose(a, a.T, rtol=0.0, atol=1e-12):
            raise ValueError("A must be symmetric")
        try:
            np.linalg.cholesky(a)
        except np.linalg.LinAlgError as err:
            raise ValueError("A must be positive definite") from err
        self.a = a
        self.b = b

    def value(self, x: np.ndarray) -> float:
        return 0.5 * float(x @ self.a @ x) + float(self.b @ x)

    def grad(self, x: np.ndarray) -> np.ndarray:
        return self.a @ x + self.b

    def hess(self, x: np.ndarray) -> np.ndarray:
        return self.a.copy()


def make_logistic(family: LogisticFamily, i: int) -> LogisticObjective:
    """Node i's objective of a logistic family."""
    return LogisticObjective(family.features[i], family.labels[i],
                             family.reg, family.n)


def node(family, i: int):
    """Node i's objective of a LogisticFamily or a QuadraticFamily."""
    if isinstance(family, LogisticFamily):
        return make_logistic(family, i)
    return QuadraticObjective(family.a[i], family.b[i])


def approximation_error(x0: np.ndarray, x1: np.ndarray, family,
                        w: np.ndarray, alpha: float) -> np.ndarray:
    """Second-order remainder e of one step from x0 to x1, from the
    family's gradients and Hessian:

    e = grad(x0) - grad(x1) + hess(x0)(x1 - x0) - alpha (I - W)(x1 - x0).
    """
    d = x1 - x0
    return family.grad_stack(x0) - family.grad_stack(x1) \
        + np.einsum("npq,nq->np", family.hess_stack(x0), d) - alpha * (d - w @ d)


def remainder_report(xs, family, w: np.ndarray, alpha: float, bounds):
    """lemma_remainder_check of a trajectory: each step's ||e|| from
    approximation_error against kappa ||dx||, kappa = 2 lip + alpha
    lam_max(I - W) with lam_max from an eigvalsh of its own, independent of
    the network's spectra."""
    lam_max = float(np.linalg.eigvalsh(np.eye(w.shape[0]) - w)[-1])
    kappa = 2.0 * bounds.lip + alpha * lam_max
    steps = list(zip(xs[:-1], xs[1:]))
    return lemma_remainder_check(
        [float(np.linalg.norm(approximation_error(x0, x1, family, w, alpha)))
         for x0, x1 in steps],
        [kappa * float(np.linalg.norm(x1 - x0)) for x0, x1 in steps])


def optimum(family) -> np.ndarray:
    """Exact minimizer of a QuadraticFamily's aggregate: -(sum A_i)^-1 sum b_i."""
    return -np.linalg.solve(family.a.sum(axis=0), family.b.sum(axis=0))


# Finite-difference agreement for one objective at one point.
DerivativeReport = namedtuple("DerivativeReport",
                              "grad_error hess_error grad_ok hess_ok")


def derivative_check(obj, x: np.ndarray, step: float = 1e-6,
                     directions: int = 5, seed: int = 0,
                     grad_tol: float = 1e-5,
                     hess_tol: float = 1e-4) -> DerivativeReport:
    """Central-difference check of grad against value and hess against grad.

    Reports relative errors; never raises on disagreement.  The step must
    stay in [1e-7, 1e-4] so truncation and cancellation both stay small.
    """
    if not (1e-7 <= step <= 1e-4):
        raise ValueError("step must lie in [1e-7, 1e-4]")
    x = np.asarray(x, dtype=float)
    p = x.shape[0]
    fd = np.empty(p)
    for k in range(p):
        e = np.zeros(p)
        e[k] = step
        fd[k] = (obj.value(x + e) - obj.value(x - e)) / (2.0 * step)
    g = obj.grad(x)
    grad_error = float(np.linalg.norm(fd - g) / (np.linalg.norm(g) + 1e-12))
    h = obj.hess(x)
    rng = np.random.default_rng(seed)
    hess_error = 0.0
    for _ in range(directions):
        v = rng.standard_normal(p)
        v /= np.linalg.norm(v)
        hv_fd = (obj.grad(x + step * v) - obj.grad(x - step * v)) / (2.0 * step)
        hv = h @ v
        err = float(np.linalg.norm(hv_fd - hv) / (np.linalg.norm(hv) + 1e-12))
        hess_error = max(hess_error, err)
    return DerivativeReport(grad_error, hess_error, grad_error < grad_tol,
                            hess_error < hess_tol)


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
