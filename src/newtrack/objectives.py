"""Per-node objective families: regularized logistic loss and quadratics.

Each family exposes two views of the same problem: per-node objectives
(value/grad/hess at a local point, used by derivative checks) and stacked
operations over all nodes at once (used by the iteration loops).  Totals
at a shared point feed the centralized reference solver.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass

import numpy as np
from scipy.special import expit


def _softplus(z: np.ndarray) -> np.ndarray:
    # log(1 + exp(z)) without overflow for large |z|.
    return np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))


@dataclass(frozen=True)
class LogisticDataset:
    """Synthetic binary classification data split across n nodes.

    features has shape (n, m, p); labels has shape (n, m) with entries in
    {-1, +1}.  reg is the total ridge weight, shared across nodes as
    reg / n each.
    """

    features: np.ndarray
    labels: np.ndarray
    reg: float
    seed: int | None = None

    def __post_init__(self):
        f, lab = self.features, self.labels
        if f.ndim != 3:
            raise ValueError("features must have shape (n, m, p)")
        if lab.shape != f.shape[:2]:
            raise ValueError("labels must have shape (n, m)")
        if not np.all(np.abs(lab) == 1):
            raise ValueError("labels must be +1 or -1")
        if self.reg < 0:
            raise ValueError("reg must be nonnegative")

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def m(self) -> int:
        return self.features.shape[1]

    @property
    def p(self) -> int:
        return self.features.shape[2]

    def digest(self) -> str:
        """SHA-256 over the raw array bytes and the ridge weight."""
        h = hashlib.sha256()
        h.update(np.ascontiguousarray(self.features).tobytes())
        h.update(np.ascontiguousarray(self.labels).tobytes())
        h.update(np.float64(self.reg).tobytes())
        return "sha256:" + h.hexdigest()

    def to_doc(self) -> dict:
        return {
            "n": self.n, "m": self.m, "p": self.p,
            "rho": float(self.reg),
            "seed": self.seed,
            "features": self.features.tolist(),
            "labels": self.labels.astype(int).tolist(),
        }

    @staticmethod
    def from_doc(doc: dict) -> "LogisticDataset":
        return LogisticDataset(
            features=np.asarray(doc["features"], dtype=float),
            labels=np.asarray(doc["labels"], dtype=float),
            reg=float(doc["rho"]),
            seed=doc.get("seed"),
        )


def generate_logistic_data(n: int, m: int, p: int, reg: float,
                           seed: int) -> LogisticDataset:
    """Normal features with unit expected square norm, labels uniform on {-1, +1}.

    Entries are i.i.d. N(0, 1/p), so each sample vector has E||o||^2 = 1
    regardless of dimension.  This keeps the per-node smoothness constant
    O(1) across problem sizes, which is the scale the published
    hand-tuned step sizes are stable at; with unit-variance entries the
    smoothness grows like m and the same step sizes diverge.
    """
    rng = np.random.default_rng(seed)
    features = rng.standard_normal((n, m, p)) / np.sqrt(p)
    labels = rng.integers(0, 2, size=(n, m)) * 2.0 - 1.0
    return LogisticDataset(features=features, labels=labels, reg=reg, seed=seed)


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
        return 0.5 * self.ridge * float(x @ x) + float(np.sum(_softplus(-z)))

    def grad(self, x: np.ndarray) -> np.ndarray:
        z = (self.features @ x) * self.labels
        s = expit(-z)
        return self.ridge * x - self.features.T @ (self.labels * s)

    def hess(self, x: np.ndarray) -> np.ndarray:
        z = (self.features @ x) * self.labels
        s = expit(-z)
        curve = s * (1.0 - s)
        return self.ridge * np.eye(self.p) + \
            (self.features * curve[:, None]).T @ self.features


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
        self.p = b.shape[0]

    def value(self, x: np.ndarray) -> float:
        return 0.5 * float(x @ self.a @ x) + float(self.b @ x)

    def grad(self, x: np.ndarray) -> np.ndarray:
        return self.a @ x + self.b

    def hess(self, x: np.ndarray) -> np.ndarray:
        return self.a.copy()


def make_logistic(dataset: LogisticDataset, node: int) -> LogisticObjective:
    """Per-node view of a logistic dataset."""
    return LogisticObjective(dataset.features[node], dataset.labels[node],
                             dataset.reg, dataset.n)


def make_quadratic(a: np.ndarray, b: np.ndarray) -> QuadraticObjective:
    return QuadraticObjective(a, b)


class LogisticFamily:
    """Stacked operations for a logistic dataset across all nodes.

    Node i's Hessian is ridge I + F_i' diag(c_i) F_i, F_i = features[i]
    of shape (m, p) and c_i = curvature(x)[i]: rank at most m above the
    ridge.
    """

    def __init__(self, dataset: LogisticDataset):
        self.dataset = dataset
        self.n = dataset.n
        self.m = dataset.m
        self.p = dataset.p
        self.ridge = dataset.reg / dataset.n
        self._f = dataset.features
        self._ft = dataset.features.transpose(0, 2, 1)
        self._lab = dataset.labels

    def node(self, i: int) -> LogisticObjective:
        return make_logistic(self.dataset, i)

    def grad_stack(self, x: np.ndarray) -> np.ndarray:
        # x has shape (n, p): one local point per node.
        z = np.einsum("nmp,np->nm", self._f, x) * self._lab
        s = expit(-z)
        return self.ridge * x - np.einsum("nm,nmp->np", self._lab * s, self._f)

    def curvature(self, x: np.ndarray) -> np.ndarray:
        """Per-sample weights c = s (1 - s) in [0, 1/4], shape (n, m)."""
        z = np.einsum("nmp,np->nm", self._f, x) * self._lab
        s = expit(-z)
        return s * (1.0 - s)

    @functools.cached_property
    def gram(self) -> np.ndarray:
        """Per-node sample Gram matrices F_i F_i', shape (n, m, m)."""
        return self._f @ self._ft

    def hess_stack(self, x: np.ndarray) -> np.ndarray:
        h = self._ft @ (self._f * self.curvature(x)[:, :, None])
        h += self.ridge * np.eye(self.p)
        return h

    def value_total(self, x: np.ndarray) -> float:
        z = (self._f @ x) * self._lab
        return 0.5 * self.dataset.reg * float(x @ x) + float(np.sum(_softplus(-z)))

    def grad_total(self, x: np.ndarray) -> np.ndarray:
        z = (self._f @ x) * self._lab
        s = expit(-z)
        return self.dataset.reg * x - np.einsum("nm,nmp->p", self._lab * s, self._f)

    def hess_total(self, x: np.ndarray) -> np.ndarray:
        z = (self._f @ x) * self._lab
        s = expit(-z)
        curve = s * (1.0 - s)
        # One GEMM over all n m samples: F' (c * F), F of shape (n m, p).
        f = self._f.reshape(-1, self.p)
        h = f.T @ (f * curve.reshape(-1, 1))
        return h + self.dataset.reg * np.eye(self.p)


class QuadraticFamily:
    """Stacked operations for per-node quadratics with a closed-form optimum."""

    def __init__(self, a: np.ndarray, b: np.ndarray):
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        if a.ndim != 3 or b.ndim != 2 or a.shape[:2] != (b.shape[0], b.shape[1]) \
                or a.shape[1] != a.shape[2]:
            raise ValueError("need A with shape (n, p, p) and b with shape (n, p)")
        for i in range(a.shape[0]):
            # Reuse the per-node validation (symmetry, positive definiteness).
            QuadraticObjective(a[i], b[i])
        self.a = a
        self.b = b
        self.n = b.shape[0]
        self.p = b.shape[1]

    def node(self, i: int) -> QuadraticObjective:
        return QuadraticObjective(self.a[i], self.b[i])

    def grad_stack(self, x: np.ndarray) -> np.ndarray:
        return np.einsum("npq,nq->np", self.a, x) + self.b

    def hess_stack(self, x: np.ndarray) -> np.ndarray:
        return self.a.copy()

    def value_total(self, x: np.ndarray) -> float:
        return 0.5 * float(x @ self.a.sum(axis=0) @ x) + float(self.b.sum(axis=0) @ x)

    def grad_total(self, x: np.ndarray) -> np.ndarray:
        return self.a.sum(axis=0) @ x + self.b.sum(axis=0)

    def hess_total(self, x: np.ndarray) -> np.ndarray:
        return self.a.sum(axis=0)

    def optimum(self) -> np.ndarray:
        """Exact minimizer of the aggregate: -(sum A_i)^{-1} sum b_i."""
        return -np.linalg.solve(self.a.sum(axis=0), self.b.sum(axis=0))


def generate_quadratic_set(n: int, p: int, seed: int,
                           eig_range: tuple[float, float] = (0.5, 2.0)
                           ) -> QuadraticFamily:
    """Random SPD quadratics with eigenvalues drawn from eig_range."""
    rng = np.random.default_rng(seed)
    a = np.empty((n, p, p))
    for i in range(n):
        q, _ = np.linalg.qr(rng.standard_normal((p, p)))
        eigs = rng.uniform(eig_range[0], eig_range[1], size=p)
        ai = (q * eigs) @ q.T
        a[i] = 0.5 * (ai + ai.T)
    b = rng.standard_normal((n, p))
    return QuadraticFamily(a, b)


@dataclass(frozen=True)
class ObjectiveBounds:
    """Global strong convexity (mu) and gradient Lipschitz (lip) constants."""

    mu: float
    lip: float

    def __post_init__(self):
        if not (0.0 < self.mu <= self.lip):
            raise ValueError(f"need 0 < mu <= lip, got mu={self.mu}, lip={self.lip}")


def convexity_bounds(family) -> ObjectiveBounds:
    """Valid (mu, lip) for every node of a known family.

    Logistic: mu = reg/n; lip = reg/n + max_i lambda_max(sum_j o_ij o_ij')/4.
    Quadratic: mu = min_i lambda_min(A_i); lip = max_i lambda_max(A_i).
    """
    if isinstance(family, LogisticFamily):
        # F_i' F_i and F_i F_i' share their nonzero eigenvalues: take the
        # smaller Gram, for m < p the one the Woodbury solve caches.
        gram = family.gram if family.m < family.p else family._ft @ family._f
        gram_max = float(np.max(np.linalg.eigvalsh(gram)[:, -1]))
        ridge = family.dataset.reg / family.n
        return ObjectiveBounds(mu=ridge, lip=ridge + 0.25 * gram_max)
    if isinstance(family, QuadraticFamily):
        lam = np.linalg.eigvalsh(family.a)
        return ObjectiveBounds(mu=float(np.min(lam[:, 0])),
                               lip=float(np.max(lam[:, -1])))
    raise TypeError(f"no convexity bounds known for {type(family).__name__}")


@dataclass(frozen=True)
class DerivativeReport:
    """Finite-difference agreement for one objective at one point."""

    grad_error: float
    hess_error: float
    grad_ok: bool
    hess_ok: bool


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
    return DerivativeReport(grad_error=grad_error, hess_error=hess_error,
                            grad_ok=grad_error < grad_tol,
                            hess_ok=hess_error < hess_tol)
