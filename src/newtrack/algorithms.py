"""Iteration rules for decentralized consensus optimization.

All methods minimize sum_i f_i(x) over a connected network where node i
only evaluates f_i and exchanges vectors with its neighbors through a
mixing matrix W.  Stacked iterates live in arrays of shape (n, p), one
row per node, so a synchronous neighbor exchange is the matrix product
W @ x.  Step functions are pure: they read (state, family, W) and return
a fresh state, which keeps runs replayable and lets tests compare
formulations trajectory against trajectory.

The curvature-tracked method comes in two formulations: the q-form
(nt_*), gradient tracking applied to a curvature-weighted direction, and
a primal-dual form that needs the global square root of I - W and
therefore serves as an independent analysis oracle (pd_*).  The paper's
canonical two-recursion form, which rebuilds q from the previous
Hessian, lives on as the plain-loop oracle in the tests.  Both forms
solve their regularized local systems through reg_solve.  First-order
baselines: gradient tracking, extra and dlm.  Every init returns the
state at t = 0, x = 0, so every step is one communication round.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.linalg.lapack import dpbsv

from .objectives import LogisticFamily, lower_band
from .topology import Graph, laplacian


def solve_spd_blocks(band: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve block_i @ out[i] = rhs[i] at every node in one LAPACK call.

    band holds the (n, b, b) stack in objectives.lower_band layout and is
    overwritten: one block-diagonal matrix of half-bandwidth b - 1, whose
    banded Cholesky (dpbsv) checks every block is positive definite and
    solves.  LinAlgError names the first node whose block is not.  A NaN
    block does not raise: its output, and maybe other nodes', is NaN.
    """
    n, b, _ = band.shape
    _, out, info = dpbsv(band.reshape(n * b, b).T, rhs.reshape(n * b, 1),
                         lower=1, overwrite_ab=1)
    if info > 0:
        raise np.linalg.LinAlgError(f"regularized local system at node "
                                    f"{(info - 1) // b} is not positive definite")
    return out.reshape(n, b)


def reg_solve(family, curve, eps: float, rhs: np.ndarray) -> np.ndarray:
    """Solve (hess_i + eps I) u_i = rhs_i, hess_i where grad_curvature gave curve.

    The data shape picks the path.  A logistic node with fewer samples than
    features (m < p) has hess_i = ridge I + F_i' C_i F_i with C_i =
    diag(curve_i) of rank at most m.  With a = ridge + eps and
    S = C_i^(1/2), the Woodbury identity gives

        u_i = (r_i - F_i' S K_i^{-1} S F_i r_i) / a,   K_i = a I + S F_i F_i' S,

    an m x m system that is SPD for every c >= 0, built in band layout, so
    the p x p Hessian is never formed.  Every other family solves the packed
    hess_blocks + eps I.  Both factor through solve_spd_blocks.
    """
    if isinstance(family, LogisticFamily) and family.m < family.p:
        f, m = family.dataset.features, family.m
        a = family.ridge + eps
        root_c = np.sqrt(curve)
        # k[i, c, d] = root_c[c + d] G[c + d, c] root_c[c], G 0 past the block.
        rows = np.minimum(np.add.outer(np.arange(m), np.arange(m)), m - 1)
        k = root_c[:, rows] * family.gram_band * root_c[:, :, None]
        k[:, :, 0] += a
        y = solve_spd_blocks(k, root_c * (f @ rhs[:, :, None])[:, :, 0])
        return (rhs - ((root_c * y)[:, None, :] @ f)[:, 0, :]) / a
    band = lower_band(family.hess_blocks(curve))
    band[:, :, 0] += eps
    return solve_spd_blocks(band, rhs)


# ---------------------------------------------------------------------------
# Curvature-tracked method, q-form.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NewtonTrackingState:
    """Iterate x, tracked direction q, its solve u, and the gradient at x.

    q sums gradient increments and disagreement corrections, so
    sum_i q_i = sum_i grad_i at every iteration; u = (hess(x) + eps I)^{-1} q
    per node is the step the next round takes.  Treat arrays as read-only.
    """

    x: np.ndarray
    q: np.ndarray
    u: np.ndarray
    grad: np.ndarray
    alpha: float
    eps: float
    t: int = 0


def nt_init(family, alpha: float, eps: float) -> NewtonTrackingState:
    """Start at x = 0 with q = grad(0) and u solving (hess(0) + eps I) u = q."""
    if alpha <= 0 or eps <= 0:
        raise ValueError("alpha and eps must be positive")
    x = np.zeros((family.n, family.p))
    g, curve = family.grad_curvature(x)
    u = reg_solve(family, curve, eps, g)
    return NewtonTrackingState(x=x, q=g, u=u, grad=g, alpha=alpha, eps=eps, t=0)


def nt_step(state: NewtonTrackingState, family, w: np.ndarray) -> NewtonTrackingState:
    """One synchronous round of the curvature-tracked update.

    x advances by -u; q absorbs the local gradient increment and the
    disagreement correction alpha (I - W)(2 x_new - x_old), which is the
    round's one exchange; the new direction solves the regularized local
    system at x_new against q.
    """
    x1 = state.x - state.u
    g1, curve = family.grad_curvature(x1)
    z = 2.0 * x1 - state.x
    q1 = state.q + (g1 - state.grad) + state.alpha * (z - w @ z)
    u1 = reg_solve(family, curve, state.eps, q1)
    return NewtonTrackingState(x=x1, q=q1, u=u1, grad=g1, alpha=state.alpha,
                               eps=state.eps, t=state.t + 1)


# The benchmark's tracer wraps algorithms.sq_init and sq_step by name, so
# the names stay as aliases of the one q-form recursion.
sq_init = nt_init
sq_step = nt_step


def norm(a: np.ndarray) -> float:
    """np.linalg.norm(a) bit for bit: its default path, without its checks."""
    return math.sqrt(a.ravel(order="K") @ a.ravel(order="K"))


def conservation_residual(state: NewtonTrackingState) -> float:
    """Relative defect of sum_i q_i = sum_i grad_i."""
    rhs = state.grad.sum(axis=0)
    return norm(state.q.sum(axis=0) - rhs) / (norm(rhs) + 1.0)


# ---------------------------------------------------------------------------
# Primal-dual form (analysis oracle: needs the global root of I - W).
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PrimalDualState:
    """Primal iterate x, dual iterate v, and the cached root of I - W."""

    x: np.ndarray
    v: np.ndarray
    root: np.ndarray
    alpha: float
    eps: float
    t: int = 0


def pd_init(family, root: np.ndarray, alpha: float, eps: float) -> PrimalDualState:
    if alpha <= 0 or eps <= 0:
        raise ValueError("alpha and eps must be positive")
    shape = (family.n, family.p)
    return PrimalDualState(x=np.zeros(shape), v=np.zeros(shape), root=root,
                           alpha=alpha, eps=eps, t=0)


def pd_step(state: PrimalDualState, family, w: np.ndarray) -> PrimalDualState:
    """Regularized Newton descent on the augmented Lagrangian, then a dual
    ascent step along the root of I - W."""
    g, curve = family.grad_curvature(state.x)
    rhs = g + state.root @ state.v + state.alpha * (state.x - w @ state.x)
    x1 = state.x - reg_solve(family, curve, state.eps, rhs)
    v1 = state.v + state.alpha * (state.root @ x1)
    return PrimalDualState(x=x1, v=v1, root=state.root,
                           alpha=state.alpha, eps=state.eps, t=state.t + 1)


# ---------------------------------------------------------------------------
# First-order baselines.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GradientTrackingState:
    """Iterate x, tracker y of the average gradient, and the gradient at x."""

    x: np.ndarray
    y: np.ndarray
    grad: np.ndarray
    alpha: float
    t: int = 0


def gt_init(family, alpha: float) -> GradientTrackingState:
    """Gradient tracking from x = 0 with the tracker seeded at grad(0)."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    x = np.zeros((family.n, family.p))
    g = family.grad_stack(x)
    return GradientTrackingState(x=x, y=g, grad=g, alpha=alpha, t=0)


def gt_step(state: GradientTrackingState, family,
            w: np.ndarray) -> GradientTrackingState:
    """Mix-and-descend along the tracker, then refresh the tracker.

    Each round exchanges both x and y, so the payload is twice that of
    the single-vector methods.  The tracker average stays equal to the
    network-average gradient at the current iterates.
    """
    x1 = w @ state.x - state.alpha * state.y
    g1 = family.grad_stack(x1)
    y1 = w @ state.y + g1 - state.grad
    return GradientTrackingState(x=x1, y=y1, grad=g1, alpha=state.alpha,
                                 t=state.t + 1)


@dataclass(frozen=True)
class ExtraState:
    """Current and previous iterates, W x_prev and the gradient at x_prev."""

    x: np.ndarray
    x_prev: np.ndarray
    wx_prev: np.ndarray
    grad_prev: np.ndarray
    alpha: float
    t: int = 0


def extra_init(family, alpha: float) -> ExtraState:
    """x = 0 with a zero history (x_prev = W x_prev = grad_prev = 0).

    The first ordinary step then is the bootstrap x^1 = W x^0 - alpha
    grad(x^0), bit for bit, but only because x^0 = 0 makes W x^0 vanish.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    zero = np.zeros((family.n, family.p))
    return ExtraState(x=zero, x_prev=zero, wx_prev=zero, grad_prev=zero,
                      alpha=alpha, t=0)


def extra_step(state: ExtraState, family, w: np.ndarray) -> ExtraState:
    """Two-step recursion x2 = (I+W) x1 - (I+W)/2 x0 - alpha (g1 - g0); W x0
    is the last round's W x1, so a round exchanges once."""
    g = family.grad_stack(state.x)
    wx = w @ state.x
    x2 = state.x + wx - 0.5 * (state.x_prev + state.wx_prev) \
        - state.alpha * (g - state.grad_prev)
    return ExtraState(x=x2, x_prev=state.x, wx_prev=wx, grad_prev=g,
                      alpha=state.alpha, t=state.t + 1)


@dataclass(frozen=True)
class DlmState:
    """Two-step history plus the graph Laplacian L and the per-node
    scaling D = diag(1 / (2 alpha d_i + eps)), d_i the node degree."""

    x: np.ndarray
    x_prev: np.ndarray
    grad_prev: np.ndarray
    alpha: float
    lap: np.ndarray
    dscale: np.ndarray
    t: int = 0


def dlm_init(family, graph: Graph, alpha: float, eps: float) -> DlmState:
    """x = 0 with a zero history (x_prev = 0, grad_prev = 0).

    The first ordinary step then is the bootstrap x^1 = (I - alpha D L)
    x^0 - D grad(x^0), bit for bit, but only because x^0 = 0 makes
    L x^0 vanish.
    """
    if alpha <= 0 or eps <= 0:
        raise ValueError("alpha and eps must be positive")
    zero = np.zeros((family.n, family.p))
    return DlmState(x=zero, x_prev=zero, grad_prev=zero, alpha=alpha,
                    lap=laplacian(graph),
                    dscale=1.0 / (2.0 * alpha * graph.degrees + eps), t=0)


def dlm_step(state: DlmState, family, w: np.ndarray) -> DlmState:
    """Two-step recursion driven by the Laplacian instead of W (w is
    unused): x2 = (I - alpha D L)(2 x1 - x0) - D (g1 - g0)."""
    g = family.grad_stack(state.x)
    z = 2.0 * state.x - state.x_prev
    x2 = z - state.alpha * state.dscale[:, None] * (state.lap @ z) \
        - state.dscale[:, None] * (g - state.grad_prev)
    return DlmState(x=x2, x_prev=state.x, grad_prev=g, alpha=state.alpha,
                    lap=state.lap, dscale=state.dscale, t=state.t + 1)


def centralized_reference(family, tol: float = 1e-12,
                          max_iter: int = 200) -> np.ndarray:
    """High-accuracy minimizer of sum_i f_i via damped Newton.

    Backtracks on the gradient norm; returns x with
    ||sum_i grad f_i(x)|| <= tol.
    """
    x = np.zeros(family.p)
    g = family.grad_total(x)
    for _ in range(max_iter):
        gn = np.linalg.norm(g)
        if gn <= tol:
            return x
        h = family.hess_total(x)
        d = cho_solve(cho_factor(h), g)
        step = 1.0
        while step > 1e-12:  # runs at least once, so xn and gxn are set
            xn = x - step * d
            gxn = family.grad_total(xn)
            if np.linalg.norm(gxn) <= (1.0 - 0.25 * step) * gn:
                break
            step *= 0.5
        x, g = xn, gxn  # the last point tried, with its gradient
    if np.linalg.norm(g) > tol:
        raise RuntimeError(f"reference solve stalled above tolerance {tol}")
    return x
