"""Per-node objective families: regularized logistic loss and quadratics.

Each family is one class that holds and validates its own data and is
built by its generator.  It exposes stacked operations over all nodes at
once, one local point per node (used by the iteration loops), and totals
at a shared point (used by the centralized reference solver).
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided
from scipy.special import expit


def generate_logistic_data(n: int, m: int, p: int, reg: float,
                           seed: int) -> LogisticFamily:
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
    return LogisticFamily(features, labels, reg)


def lower_band(blocks: np.ndarray) -> np.ndarray:
    """Symmetric (n, b, b) blocks in lower band layout: out[i, c, d] =
    blocks[i, c + d, c], zero past the block (dpbsv's storage, transposed)."""
    n, b, _ = blocks.shape
    # Columns written as rows of width 2b - 1, read back at width 2b.
    skew = np.zeros((n, b + 1, 2 * b - 1))
    skew[:, :b, :b] = blocks.transpose(0, 2, 1)
    return skew.reshape(n, -1)[:, :2 * b * b].reshape(n, b, 2 * b)[:, :, :b].copy()


# Largest sample-product cache LogisticFamily.hess_band keeps (n m p^2
# doubles, p times the features): 61 KB on fig1 and 256 KB on topo-n10.  Its
# one product reads the whole cache each round, so at about 1 MB it only
# breaks even with the GEMM of hess_blocks, and past that it loses.
PAIRS_BYTES = 1 << 19


class LogisticFamily:
    """Logistic losses of n nodes, holding their own data: features of
    shape (n, m, p), labels of shape (n, m) in {-1, +1}, and the total
    ridge weight reg, shared across nodes as reg / n each.  Node i's
    Hessian is ridge I + F_i' diag(c_i) F_i, F_i = features[i] and c_i in
    [0, 1/4]^m the weights grad_curvature returns with the gradient: rank
    at most m above the ridge.
    """

    def __init__(self, features: np.ndarray, labels: np.ndarray, reg: float):
        if features.ndim != 3:
            raise ValueError("features must have shape (n, m, p)")
        if labels.shape != features.shape[:2]:
            raise ValueError("labels must have shape (n, m)")
        if not np.all(np.abs(labels) == 1):
            raise ValueError("labels must be +1 or -1")
        if reg < 0:
            raise ValueError("reg must be nonnegative")
        self.features = features
        self.labels = labels
        self.reg = reg
        self.n, self.m, self.p = features.shape
        self.ridge = reg / self.n
        self._ft = features.transpose(0, 2, 1)
        # Labels are +-1, so -y F is exact, and (-y F) x is -((F x) y) bit for
        # bit: rounding is symmetric under negation.
        self._nyf = -labels[:, :, None] * features

    def digest(self) -> str:
        """SHA-256 over the raw array bytes and the ridge weight."""
        h = hashlib.sha256()
        h.update(np.ascontiguousarray(self.features).tobytes())
        h.update(np.ascontiguousarray(self.labels).tobytes())
        h.update(np.float64(self.reg).tobytes())
        return "sha256:" + h.hexdigest()

    def _sigmoid(self, x: np.ndarray) -> np.ndarray:
        # s = expit(-y F x); x has shape (n, p), one local point per node.
        return expit(np.matvec(self._nyf, x))

    def _grad(self, x: np.ndarray, s: np.ndarray) -> np.ndarray:
        g = np.vecmat(s, self._nyf)
        g += self.ridge * x
        return g

    def grad_stack(self, x: np.ndarray) -> np.ndarray:
        return self._grad(x, self._sigmoid(x))

    def grad_curvature(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """grad_stack(x) and the weights c = s (1 - s), of one sigmoid pass."""
        s = self._sigmoid(x)
        return self._grad(x, s), s * (1.0 - s)

    def hess_blocks(self, curve: np.ndarray) -> np.ndarray:
        """Stacked Hessians from the weights grad_curvature returned."""
        h = self._ft @ (self.features * curve[:, :, None])
        diag = h.reshape(self.n, -1)[:, ::self.p + 1]
        diag += self.ridge
        return h

    def hess_stack(self, x: np.ndarray) -> np.ndarray:
        s = self._sigmoid(x)
        return self.hess_blocks(s * (1.0 - s))

    @functools.cached_property
    def _pairs(self) -> np.ndarray | None:
        """Sample products in lower band layout, shape (n, m, p p):
        F[i, j, c + d] F[i, j, c] at [i, j, c p + d], zero past the block;
        None past PAIRS_BYTES."""
        n, m, p = self.features.shape
        if n * m * p * p * 8 > PAIRS_BYTES:
            return None
        # Transposed features, zero-padded to 2p - 1 rows, sample innermost:
        # row (c, d) of their skewed view is feature row c + d.
        ft = np.zeros((2 * p - 1, n * m))
        ft[:p] = self.features.reshape(-1, p).T
        row, col = ft.strides
        skew = as_strided(ft, (p, p, n * m), (row, row, col), writeable=False)
        pairs = (skew * ft[:p, None]).reshape(p * p, n * m)
        return np.ascontiguousarray(pairs.T).reshape(n, m, p * p)

    def hess_band(self, curve: np.ndarray, eps: float) -> np.ndarray:
        """hess_blocks(curve) + eps I in lower_band layout: within the byte
        budget, one product of the weights with the cached sample products."""
        if self._pairs is None:
            band = lower_band(self.hess_blocks(curve))
            diag = band[:, :, 0]
        else:
            band = np.vecmat(curve, self._pairs).reshape(self.n, self.p, self.p)
            diag = band[:, :, 0]
            diag += self.ridge
        # Through one view: band[:, :, 0] += eps also writes the slice back.
        diag += eps
        return band

    @functools.cached_property
    def gram(self) -> np.ndarray:
        """Per-node sample Gram matrices F_i F_i', shape (n, m, m)."""
        return self.features @ self._ft

    @functools.cached_property
    def gram_band(self) -> np.ndarray:
        """gram in lower band layout, for the m < p local solve."""
        return lower_band(self.gram)

    def grad_curvature_total(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The total gradient at x and the weights c = s (1 - s), of one
        sigmoid pass."""
        s = expit(self._nyf @ x)
        g = self.reg * x + np.einsum("nm,nmp->p", s, self._nyf)
        return g, s * (1.0 - s)

    def hess_total(self, x: np.ndarray, curve: np.ndarray) -> np.ndarray:
        """The total Hessian at x from its weights curve, which
        grad_curvature_total(x) returns."""
        # One GEMM over all n m samples: F' (c * F), F of shape (n m, p).
        f = self.features.reshape(-1, self.p)
        h = f.T @ (f * curve.reshape(-1, 1))
        return h + self.reg * np.eye(self.p)


class QuadraticFamily:
    """Stacked operations for per-node quadratics x'A_i x / 2 + b_i'x, A_i SPD."""

    def __init__(self, a: np.ndarray, b: np.ndarray):
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        if a.ndim != 3 or b.ndim != 2 or a.shape[:2] != (b.shape[0], b.shape[1]) \
                or a.shape[1] != a.shape[2]:
            raise ValueError("need A with shape (n, p, p) and b with shape (n, p)")
        if not np.allclose(a, a.transpose(0, 2, 1), rtol=0.0, atol=1e-12):
            raise ValueError("A must be symmetric")
        try:
            np.linalg.cholesky(a)
        except np.linalg.LinAlgError as err:
            raise ValueError("A must be positive definite") from err
        self.a = a
        self.b = b
        self.n = b.shape[0]
        self.p = b.shape[1]

    def digest(self) -> str:
        """SHA-256 over the raw bytes of A, then b."""
        h = hashlib.sha256()
        h.update(np.ascontiguousarray(self.a).tobytes())
        h.update(np.ascontiguousarray(self.b).tobytes())
        return "sha256:" + h.hexdigest()

    def grad_stack(self, x: np.ndarray) -> np.ndarray:
        return np.einsum("npq,nq->np", self.a, x) + self.b

    def grad_curvature(self, x: np.ndarray) -> tuple[np.ndarray, None]:
        return self.grad_stack(x), None  # constant Hessians need no weights

    def hess_blocks(self, curve: None) -> np.ndarray:
        return self.a.copy()

    def hess_stack(self, x: np.ndarray) -> np.ndarray:
        return self.hess_blocks(None)

    @functools.cached_property
    def _band(self) -> np.ndarray:
        return lower_band(self.a)

    def hess_band(self, curve: None, eps: float) -> np.ndarray:
        """A + eps I in lower_band layout."""
        band = self._band.copy()
        band[:, :, 0] += eps
        return band

    def grad_curvature_total(self, x: np.ndarray) -> tuple[np.ndarray, None]:
        return self.a.sum(axis=0) @ x + self.b.sum(axis=0), None

    def hess_total(self, x: np.ndarray, curve: None) -> np.ndarray:
        return self.a.sum(axis=0)


def generate_quadratic_set(n: int, p: int, seed: int) -> QuadraticFamily:
    """Random SPD quadratics with eigenvalues drawn from [0.5, 2]."""
    rng = np.random.default_rng(seed)
    a = np.empty((n, p, p))
    for i in range(n):
        q, _ = np.linalg.qr(rng.standard_normal((p, p)))
        eigs = rng.uniform(0.5, 2.0, size=p)
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
        gram = family.gram if family.m < family.p else family._ft @ family.features
        gram_max = float(np.max(np.linalg.eigvalsh(gram)[:, -1]))
        return ObjectiveBounds(mu=family.ridge, lip=family.ridge + 0.25 * gram_max)
    if isinstance(family, QuadraticFamily):
        lam = np.linalg.eigvalsh(family.a)
        return ObjectiveBounds(mu=float(np.min(lam[:, 0])),
                               lip=float(np.max(lam[:, -1])))
    raise TypeError(f"no convexity bounds known for {type(family).__name__}")
