"""Iteration rules for decentralized consensus optimization.

All methods minimize sum_i f_i(x) over a connected network where node i
only evaluates f_i and exchanges vectors with its neighbors.  Stacked
iterates live in arrays of shape (n, p), one row per node, so a
synchronous exchange is one product with an n x n operator D, which a
method's init fixes and its state carries.  Step functions are pure: they
read (state, family) and return a fresh state, so runs replay and forms
compare trajectory for trajectory.  Inits start at x = 0; steps are rounds.

One q-form, x1 = x - M^{-1} q and q1 = q + g1 - g + alpha (2 dx1 - dx) from
q = grad(0), with dx = D x carried so that a round computes D x1 once,
serves all four methods; M is a local curvature plus eps I:

    method  curvature     eps   alpha    D      vectors per round
    nt      hess_i(x)     eps   alpha    I - W  1  (reg_solve: local_solve)
    extra   0             1/a   1/(2a)   I - W  1  (a: EXTRA's step)
    dlm     2 alpha d_i   eps   alpha    L      1  (d_i: degree, L: Laplacian)
    gt      0             1/a   1/a      I - W  2  (a: gt's step; q = y + D x / a)

Gradient tracking's push is alpha (2 dx1 - 2 dx + D dx): D dx is its
second exchange, the tracker y's.  A primal-dual form of nt (pd_*) needs
the global root of I - W and keeps W, so it serves as an independent
analysis oracle.  The paper's two-recursion form of nt, the two-step
forms of extra and dlm and the two-recursion gradient tracking live on
as plain-loop oracles in the tests.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np
from scipy.linalg.lapack import dpbsv, dpotrf, dpotrs

from .topology import Graph, MixingMatrix, laplacian


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
    """Solve (hess_i + eps I) u_i = rhs_i, hess_i where grad_curvature gave
    curve, by the family's local_solve through solve_spd_blocks (looked up
    here at call time, so a wrapper installed on this module sees it)."""
    return family.local_solve(curve, eps, rhs, solve_spd_blocks)


# ---------------------------------------------------------------------------
# Curvature-tracked method, q-form.
# ---------------------------------------------------------------------------

class NewtonTrackingState(NamedTuple):
    """Iterate x, tracked direction q, its step u = M^{-1} q, the gradient
    at x, the exchange dx = D x with the operator d = D, scale: None where
    M is hess(x) + eps I (nt), else the constant 1 / (c + eps) of a fixed
    curvature c (a float, or an (n, 1) column of one per node), and
    second_exchange: True for gradient tracking, whose push also takes
    D dx - dx, so that its rounds send two vectors.

    q sums gradient increments and disagreement corrections, so
    sum_i q_i = sum_i grad_i at every iteration.  Fields cannot be
    assigned (state._replace makes a changed copy); treat arrays as
    read-only.
    """

    x: np.ndarray
    q: np.ndarray
    u: np.ndarray
    grad: np.ndarray
    dx: np.ndarray
    d: np.ndarray
    alpha: float
    eps: float
    t: int = 0
    scale: float | np.ndarray | None = None
    second_exchange: bool = False


def _oracle(family, scale, x: np.ndarray):
    """Gradient at x and, only where M is the Hessian (scale None), its weights."""
    return family.grad_curvature(x) if scale is None else (family.grad_stack(x), None)


def _direction(family, curve, eps: float, scale, q: np.ndarray) -> np.ndarray:
    return reg_solve(family, curve, eps, q) if scale is None else scale * q


def _start(family, d, alpha, eps, fixed=None, second_exchange=False) -> NewtonTrackingState:
    """x = 0 = D x, q = grad(0), u = M^{-1} q; fixed: a constant curvature."""
    scale = None if fixed is None else 1.0 / (fixed + eps)
    x = np.zeros((family.n, family.p))
    g, curve = _oracle(family, scale, x)
    return NewtonTrackingState(x, g, _direction(family, curve, eps, scale, g), g,
                               x, d, alpha, eps, 0, scale, second_exchange)


def nt_init(family, mix: MixingMatrix, alpha: float, eps: float) -> NewtonTrackingState:
    """Newton tracking over I - W: u solves (hess_i(0) + eps I) u_i = grad_i(0)."""
    if alpha <= 0 or eps <= 0:
        raise ValueError("alpha and eps must be positive")
    return _start(family, mix.disagreement, alpha, eps)


def extra_init(family, mix: MixingMatrix, alpha: float) -> NewtonTrackingState:
    """EXTRA over I - W, step a = alpha; its first step is x^1 = -a grad(0)."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    return _start(family, mix.disagreement, 0.5 / alpha, 1.0 / alpha, 0.0)


def dlm_init(family, graph: Graph, alpha: float, eps: float) -> NewtonTrackingState:
    """DLM over the Laplacian; its first step is x^1 = -grad_i(0) / (2 alpha d_i + eps)."""
    if alpha <= 0 or eps <= 0:
        raise ValueError("alpha and eps must be positive")
    return _start(family, laplacian(graph), alpha, eps,
                  2.0 * alpha * graph.degrees[:, None])


def gt_init(family, mix: MixingMatrix, alpha: float) -> NewtonTrackingState:
    """Gradient tracking over D = I - W, step a = alpha: q = y + D x / a for
    its tracker y, seeded at grad(0); its first step is x^1 = -a grad(0)."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    return _start(family, mix.disagreement, 1.0 / alpha, 1.0 / alpha, 0.0, True)


def nt_step(state: NewtonTrackingState, family) -> NewtonTrackingState:
    """One round: x advances by -u; its exchange is dx1 = D x1 with the
    state's D; q takes the gradient increment and alpha (2 dx1 - dx), for
    gradient tracking alpha (2 dx1 - 2 dx + D dx); u becomes M^{-1} q at x1."""
    x1 = state.x - state.u
    g1, curve = _oracle(family, state.scale, x1)
    dx1 = state.d @ x1
    # q + (g1 - g) + alpha (2 dx1 - dx [- dx + D dx]) in place: the same
    # sums, bit for bit.
    q1 = g1 - state.grad
    q1 += state.q
    push = 2.0 * dx1
    push -= state.dx
    if state.second_exchange:
        push -= state.dx
        push += state.d @ state.dx
    push *= state.alpha
    q1 += push
    u1 = _direction(family, curve, state.eps, state.scale, q1)
    return NewtonTrackingState(x1, q1, u1, g1, dx1, state.d, state.alpha, state.eps,
                               state.t + 1, state.scale, state.second_exchange)


# The benchmark's tracer wraps algorithms.<method>_init and <method>_step by
# name and times each method's steps apart, so the names stay as bindings
# of the one q-form recursion.
extra_step = dlm_step = gt_step = sq_step = nt_step
sq_init = nt_init


def norm(a: np.ndarray) -> float:
    """np.linalg.norm(a) bit for bit, for any layout: its default path (one
    BLAS dot over a in memory order), without its checks."""
    flat = a.ravel(order="K")
    return math.sqrt(flat.dot(flat))


def norms(a: np.ndarray) -> list:
    """norm(a[t]) for each t, bit for bit: the same BLAS dot per row, one
    vecdot call for them all (norm itself for one row, a microsecond less)."""
    if len(a) == 1:
        return [norm(a)]
    rows = a.reshape(len(a), -1)
    return np.sqrt(np.vecdot(rows, rows)).tolist()


def conservation_residuals(q: np.ndarray, grad: np.ndarray) -> list:
    """Relative defect of sum_i q_i = sum_i grad_i for each (n, p) pair of
    (T, n, p) stacks."""
    rhs = np.add.reduce(grad, axis=-2)
    defect = np.add.reduce(q, axis=-2)
    defect -= rhs
    return [a / (b + 1.0) for a, b in zip(norms(defect), norms(rhs))]


# ---------------------------------------------------------------------------
# Primal-dual form (analysis oracle: needs the global root of I - W).
# ---------------------------------------------------------------------------

class PrimalDualState(NamedTuple):
    """Primal iterate x, dual iterate v, the weights W, the cached root of
    I - W, and the gradient at x with its weights, grad_curvature's."""

    x: np.ndarray
    v: np.ndarray
    w: np.ndarray
    root: np.ndarray
    grad: np.ndarray
    curve: np.ndarray | None
    alpha: float
    eps: float
    t: int = 0


def pd_init(family, mix: MixingMatrix, root: np.ndarray, alpha: float,
            eps: float) -> PrimalDualState:
    if alpha <= 0 or eps <= 0:
        raise ValueError("alpha and eps must be positive")
    x = np.zeros((family.n, family.p))
    return PrimalDualState(x, np.zeros_like(x), mix.w, root,
                           *family.grad_curvature(x), alpha, eps)


def pd_step(state: PrimalDualState, family) -> PrimalDualState:
    """Regularized Newton descent on the augmented Lagrangian, then a dual
    ascent step along the root of I - W."""
    rhs = state.grad + state.root @ state.v + state.alpha * (state.x - state.w @ state.x)
    x1 = state.x - reg_solve(family, state.curve, state.eps, rhs)
    v1 = state.v + state.alpha * (state.root @ x1)
    return PrimalDualState(x1, v1, state.w, state.root, *family.grad_curvature(x1),
                           state.alpha, state.eps, state.t + 1)


def total_grad_curvature(family, x: np.ndarray):
    """sum_i grad f_i(x) at a shared point x, summed in node order, with
    grad_curvature at x broadcast to all nodes: each node's gradient and
    curvature weights there."""
    g, curve = family.grad_curvature(np.broadcast_to(x, (family.n, family.p)))
    return np.add.reduce(g, axis=0), g, curve


def centralized_reference(family, tol: float = 1e-12) -> tuple[np.ndarray, np.ndarray]:
    """High-accuracy minimizer x* of sum_i f_i via damped Newton, with the
    (n, p) node gradients grad f_i(x*) it was accepted on.

    Backtracks on the gradient norm; returns x with
    ||sum_i grad f_i(x)|| <= tol within 200 Newton steps.  It sums node
    oracles only, which round alike at any BLAS thread count: each point's
    gradient comes with its curvature weights, whose hess_blocks the
    Hessian at an accepted point sums.  Each Newton system is factored and
    solved by LAPACK directly (dpotrf, dpotrs: what cho_factor and
    cho_solve call, without their argument checks); a Hessian that is not
    positive definite raises LinAlgError.
    """
    x = np.zeros(family.p)
    g, nodes, curve = total_grad_curvature(family, x)
    for _ in range(200):
        gn = norm(g)
        if gn <= tol:
            return x, nodes
        hess = np.add.reduce(family.hess_blocks(curve), axis=0)
        c, info = dpotrf(hess, lower=0, clean=0)
        if info:
            raise np.linalg.LinAlgError(f"{info}-th leading minor of the total "
                                        "Hessian is not positive definite")
        d, _ = dpotrs(c, g, lower=0)
        step = 1.0
        while step > 1e-12:  # runs at least once, so xn and its oracles are set
            xn = x - step * d
            gxn, nn, cn = total_grad_curvature(family, xn)
            if norm(gxn) <= (1.0 - 0.25 * step) * gn:
                break
            step *= 0.5
        x, g, nodes, curve = xn, gxn, nn, cn  # the last point tried, with its oracles
    if norm(g) > tol:
        raise RuntimeError(f"reference solve stalled above tolerance {tol}")
    return x, nodes
