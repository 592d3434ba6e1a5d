"""Numerical optimization toolkit for the model estimators.

Maximization conventions throughout: callers pass the objective to be
maximized; minimization happens internally.  Contents:

  - numeric_gradient / numeric_hessian: central differences
  - project_simplex: Euclidean projection onto the probability simplex
  - maximize_unconstrained: BFGS steps on the caller's analytic
    gradient; a step that leaves x bitwise unchanged ends the run
    ("line search stalled")
  - maximize_simplex: active-set Newton method on the probability
    simplex, certified by a KKT residual scaled to the sample size
  - maximize_auglag: Augmented Lagrangian on the probability simplex
    (sum(w) = 1, w >= 0) whose private inner solve takes modified Newton
    steps on the exact Hessian of the augmented objective, built from
    the caller's analytic gradient and Hessian of f

Augmented Lagrangian tolerances: gradient/KKT 1e-6, sum constraint
1e-6, bounds 1e-8; iteration caps 500 (inner) / 50 (outer); penalty
growth 10 from an initial penalty of 1, capped at 1e12.  Line searches
backtrack with the Armijo condition (contraction 0.5, slope factor
1e-4); a non-finite objective during a line search shrinks the step
instead of failing, so log(0) near a boundary is survivable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .exceptions import EstimationError

GRAD_TOL = 1e-6
EQ_TOL = 1e-6
INEQ_TOL = 1e-8
MAX_INNER_ITER = 500
MAX_OUTER_ITER = 50
PENALTY_GROWTH = 10.0
MAX_PENALTY = 1e12
INITIAL_PENALTY = 1.0
ARMIJO_SLOPE = 1e-4
NEWTON_SHIFT = 1e-8  # smallest Hessian eigenvalue kept, relative to its largest entry
BACKTRACK = 0.5
MAX_BACKTRACKS = 60
KKT_TOL = 1e-9  # maximize_simplex's KKT residual bound, per observation
MAX_SIMPLEX_ITER = 100


@dataclass
class OptimResult:
    argmax: np.ndarray
    value: float
    converged: bool
    iterations: int
    gradient: Optional[np.ndarray] = None
    message: str = ""


def numeric_gradient(f: Callable, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central-difference gradient with absolute step h per coordinate."""
    x = np.asarray(x, dtype=float)
    grad = np.empty_like(x)
    for i in range(x.size):
        step = np.zeros_like(x)
        step[i] = h
        f_plus, f_minus = f(x + step), f(x - step)
        if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
            raise EstimationError(f"non-finite objective in gradient stencil at coordinate {i}")
        grad[i] = (f_plus - f_minus) / (2.0 * h)
    return grad


def numeric_hessian(f: Callable, x: np.ndarray, h: float = 1e-4) -> np.ndarray:
    """Central-difference Hessian, symmetrized as (H + H') / 2."""
    x = np.asarray(x, dtype=float)
    p = x.size
    hess = np.empty((p, p))
    f0 = f(x)
    if not np.isfinite(f0):
        raise EstimationError("non-finite objective at the Hessian expansion point")
    for i in range(p):
        ei = np.zeros(p)
        ei[i] = h
        hess[i, i] = (f(x + ei) - 2.0 * f0 + f(x - ei)) / (h * h)
        for j in range(i + 1, p):
            ej = np.zeros(p)
            ej[j] = h
            vals = [f(x + ei + ej), f(x + ei - ej), f(x - ei + ej), f(x - ei - ej)]
            if not np.all(np.isfinite(vals)):
                raise EstimationError(
                    f"non-finite objective in Hessian stencil at coordinates ({i}, {j})"
                )
            hess[i, j] = hess[j, i] = (vals[0] - vals[1] - vals[2] + vals[3]) / (4.0 * h * h)
    if not np.all(np.isfinite(hess)):
        raise EstimationError("non-finite objective in Hessian stencil")
    return 0.5 * (hess + hess.T)


def project_simplex(v: Sequence[float]) -> np.ndarray:
    """Euclidean projection onto {w : w >= 0, sum(w) = 1}.

    Sort-based algorithm; idempotent, and exact on already-feasible
    points.
    """
    v = np.asarray(v, dtype=float)
    if not np.isfinite(v).all():
        raise ValueError("cannot project a non-finite point")
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    idx = np.arange(1, v.size + 1)
    rho = np.nonzero(u + (1.0 - css) / idx > 0)[0][-1]
    tau = (1.0 - css[rho]) / (rho + 1.0)
    return np.maximum(v + tau, 0.0)


def maximize_unconstrained(
    f: Callable[[np.ndarray], float],
    start: Sequence[float],
    gradient: Callable[[np.ndarray], np.ndarray],
    gtol: float = GRAD_TOL,
    max_iter: int = MAX_INNER_ITER,
) -> OptimResult:
    """Maximize f from a starting point by BFGS steps on its gradient.

    Converged means max |gradient| <= ``gtol``.
    """
    x = np.array(start, dtype=float)
    fval = -f(x)  # run as minimization of -f
    if not np.isfinite(fval):
        raise EstimationError("objective is not finite at the starting point")
    g = -gradient(x)  # gradient of -f
    h_inv = np.eye(x.size)
    iterations = 0
    message = "iteration cap reached"
    while iterations < max_iter and np.max(np.abs(g)) > gtol:
        iterations += 1
        direction = -h_inv @ g
        if direction @ g >= 0:
            # degenerate BFGS state: fall back to steepest descent
            direction = -g

        step, fval_new, ok = _armijo_descent(lambda z: -f(z), x, fval, g, direction)
        x_new = x + step * direction
        # a step too small to move x leaves every later iteration identical
        if not ok or np.array_equal(x_new, x):
            message = "line search stalled"
            break

        g_new = -gradient(x_new)
        s = x_new - x
        y = g_new - g
        sy = s @ y
        if sy > 1e-12 * max(1.0, float(np.linalg.norm(s)) * float(np.linalg.norm(y))):
            rho = 1.0 / sy
            eye = np.eye(x.size)
            h_inv = (eye - rho * np.outer(s, y)) @ h_inv @ (
                eye - rho * np.outer(y, s)
            ) + rho * np.outer(s, s)
        x, fval, g = x_new, fval_new, g_new

    converged = bool(np.max(np.abs(g)) <= gtol)
    if converged:
        message = "gradient norm below tolerance"
    return OptimResult(argmax=x, value=-float(fval), converged=converged,
                       iterations=iterations, gradient=-g, message=message)


def _armijo_descent(f, x, fx, g, direction):
    """Backtracking Armijo line search; shrinks through non-finite values."""
    slope = g @ direction
    step = 1.0
    for _ in range(MAX_BACKTRACKS):
        candidate = f(x + step * direction)
        if np.isfinite(candidate) and candidate <= fx + ARMIJO_SLOPE * step * slope:
            return step, candidate, True
        step *= BACKTRACK
    return 0.0, fx, False


def maximize_simplex(
    f: Callable[[np.ndarray], float],
    start: Sequence[float],
    gradient: Callable[[np.ndarray], np.ndarray],
    hessian: Callable[[np.ndarray], np.ndarray],
    n_obs: float,
) -> OptimResult:
    """Maximize a concave f over the simplex by active-set Newton steps.

    Each step solves the Newton KKT system on the free (positive)
    coordinates under sum(step) = 0, by least squares because identical
    sources make it singular, stops at the first bound it reaches and
    backtracks (Armijo).  Once the free coordinates are stationary, the
    most-violated bound is released (Bertsekas 1982, SIAM J. Control
    Optim. 20(2)).  Converged means the KKT residual and the squared
    Newton decrement are both at most ``KKT_TOL * n_obs``; ``gradient``
    is the gradient at ``argmax``.
    """
    x = np.asarray(start, dtype=float).copy()
    fx = f(x)
    if not np.isfinite(fx):
        raise EstimationError("objective is not finite at the starting point")
    tol = KKT_TOL * n_obs
    message = "line search stalled"
    for iterations in range(MAX_SIMPLEX_ITER + 1):
        g = gradient(x)
        free = x > 0
        excess = g - g[free].mean()
        free_residual = np.max(np.abs(excess[free]))
        bound_excess = np.where(free, -np.inf, excess)
        if free_residual <= tol < bound_excess.max():
            free[bound_excess.argmax()] = True
        idx = np.flatnonzero(free)
        hess = hessian(x)[np.ix_(idx, idx)]
        # the sum row on the Hessian's scale, so that least squares drops
        # only directions flat relative to the Hessian itself
        kkt = np.full((idx.size + 1, idx.size + 1), np.max(np.abs(hess)) or 1.0)
        kkt[:-1, :-1] = hess
        kkt[-1, -1] = 0.0
        newton = np.zeros(x.size)
        newton[idx] = np.linalg.lstsq(kkt, np.append(-g[idx], 0.0), rcond=None)[0][:-1]
        # the squared Newton decrement is the gain a full step would
        # make; where the curvature is far smaller than the gradient, a
        # small residual alone does not put f near its maximum
        converged = bool(max(free_residual, bound_excess.max()) <= tol and g @ newton <= tol)
        if converged or iterations == MAX_SIMPLEX_ITER:
            message = "KKT residual below tolerance" if converged else "iteration cap reached"
            break
        # the longest step up to the Newton step that keeps w >= 0; the
        # coordinates it stops at land on zero exactly
        ratios = np.divide(x, -newton, out=np.full(x.size, np.inf), where=newton < 0)
        limit = min(1.0, ratios.min())
        direction = limit * newton
        hit = ratios <= limit
        direction[hit] = -x[hit]
        # the largest free, unhit coordinate absorbs the rounding that
        # the solve and the clipping leave in sum(step) = 0, so a step
        # onto a vertex lands on it exactly, not by rounding luck
        room = np.flatnonzero(free & ~hit)
        if room.size:
            top = room[direction[room].argmax()]
            direction[top] = 0.0
            direction[top] = -direction.sum()
        step, neg_fx, ok = _armijo_descent(lambda z: -f(z), x, -fx, -g, direction)
        if not ok or np.array_equal(x + step * direction, x):
            break
        x, fx = x + step * direction, -neg_fx
    return OptimResult(argmax=x, value=float(fx), converged=converged,
                       iterations=iterations, gradient=g, message=message)


def maximize_auglag(
    f: Callable[[np.ndarray], float],
    start: Sequence[float],
    gradient: Callable[[np.ndarray], np.ndarray],
    hessian: Callable[[np.ndarray], np.ndarray],
) -> OptimResult:
    """Maximize f over the probability simplex from a feasible start.

    The constraints are sum(w) - 1 = 0, with one scalar multiplier, and
    w >= 0, with one multiplier per coordinate.  Outer iterations update
    the multipliers and the penalty rho; each inner solve maximizes the
    augmented objective with Newton steps on its Hessian, the Hessian of
    f minus rho on every entry (the sum) and minus rho more on the
    diagonal of each active bound, exact because the constraints are
    linear.  Convergence requires the KKT stationarity residual at or
    below ``GRAD_TOL``, |sum(w) - 1| <= ``EQ_TOL`` and w >= -``INEQ_TOL``.
    """
    x = np.asarray(start, dtype=float)
    if _simplex_violation(x) > 1e-8:
        raise EstimationError(
            f"starting point violates constraints by {_simplex_violation(x):.3e}; "
            "supply a feasible start"
        )
    if not np.isfinite(f(x)):
        raise EstimationError("objective is not finite at the starting point")

    mu = 0.0  # multiplier of sum(w) - 1
    nu = np.zeros(x.size)  # multipliers of w >= 0, kept >= 0
    rho = INITIAL_PENALTY

    def augmented(z: np.ndarray) -> float:
        # minimization form applied to -f, returned negated so the inner
        # solver can keep maximizing
        val = f(z)
        if not math.isfinite(val):
            return val
        hv = float(z.sum() - 1.0)
        shifted = nu_rho - z
        active = shifted[shifted > 0]
        return val - (mu * hv + 0.5 * rho * (hv * hv) + 0.5 * rho * float(active @ active)
                      - nu_penalty)

    def augmented_gradient(z: np.ndarray) -> np.ndarray:
        hv = float(z.sum() - 1.0)
        return gradient(z) - (mu + rho * hv) + np.maximum(0.0, nu - rho * z)

    def augmented_hessian(z: np.ndarray) -> np.ndarray:
        hess = hessian(z) - rho
        hess.flat[:: z.size + 1] -= rho * (nu - rho * z > 0)  # the active bounds
        return hess

    converged = False
    total_inner = 0
    prev_violation = np.inf
    message = "outer iteration cap reached"
    for outer in range(1, MAX_OUTER_ITER + 1):
        nu_rho, nu_penalty = nu / rho, float(nu @ nu) / (2.0 * rho)  # fixed per inner solve
        # loose inner tolerance on early outer rounds, full tolerance later
        inner = _maximize_newton(
            augmented, x, augmented_gradient, augmented_hessian,
            gtol=GRAD_TOL * 10.0 ** max(0, 3 - outer),
        )
        x = inner.argmax
        total_inner += inner.iterations
        hv = float(x.sum() - 1.0)
        violation = _simplex_violation(x)

        # first-order multiplier updates
        mu = mu + rho * hv
        nu = np.maximum(0.0, nu - rho * x)

        # KKT stationarity with the updated multipliers
        stationarity = float(np.max(np.abs(gradient(x) - mu + nu)))
        if abs(hv) <= EQ_TOL and float(np.min(x)) >= -INEQ_TOL and stationarity <= GRAD_TOL:
            converged = True
            message = "KKT conditions satisfied"
            break

        if violation > 0.25 * prev_violation and violation > EQ_TOL:
            rho *= PENALTY_GROWTH
        if rho > MAX_PENALTY:
            message = "penalty overflow: constraint violation not decreasing"
            break
        prev_violation = max(violation, 1e-300)

    return OptimResult(argmax=x, value=float(f(x)), converged=converged,
                       iterations=total_inner, gradient=gradient(x), message=message)


def _maximize_newton(f, start, gradient, hessian, gtol=GRAD_TOL, max_iter=MAX_INNER_ITER):
    """maximize_auglag's inner solve: Newton steps on the Hessian, shifted to
    positive definite where indefinite, and an inline Armijo search.  A step
    that leaves f bitwise unchanged (so any that leaves x so) ends the run."""
    x = np.array(start, dtype=float)
    fval, g = -f(x), -gradient(x)  # run as minimization of -f
    iterations, message = 0, "iteration cap reached"
    while iterations < max_iter and np.abs(g).max() > gtol:
        iterations += 1
        hess = -hessian(x)
        floor = NEWTON_SHIFT * max(1.0, float(np.abs(hess).max()))
        hess.flat[:: x.size + 1] += max(0.0, floor - float(np.linalg.eigvalsh(hess)[0]))
        direction = np.linalg.solve(hess, -g)
        if direction @ g >= 0:
            direction = -g
        slope, step = g @ direction, 1.0
        for _ in range(MAX_BACKTRACKS):
            x_new = x + step * direction
            fval_new = -f(x_new)
            if math.isfinite(fval_new) and fval_new <= fval + ARMIJO_SLOPE * step * slope:
                break
            step *= BACKTRACK
        else:  # no step passes: end the run below
            fval_new = fval
        if fval_new == fval:
            message = "line search stalled"
            break
        x, fval, g = x_new, fval_new, -gradient(x_new)

    converged = bool(np.abs(g).max() <= gtol)
    if converged:
        message = "gradient norm below tolerance"
    return OptimResult(argmax=x, value=-float(fval), converged=converged,
                       iterations=iterations, gradient=-g, message=message)


def _simplex_violation(w: np.ndarray) -> float:
    """Largest violation of sum(w) = 1 and of w >= 0."""
    return max(0.0, abs(float(w.sum() - 1.0)), float(np.max(np.maximum(0.0, -w))))
