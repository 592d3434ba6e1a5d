"""Shared core for mixture log-likelihoods on probability tensors.

Both the multimatrix MTD and the covariate-driven model reduce, per
equation, to weights on the simplex scoring a (rows, s) tensor ``q``
whose entry [t, k] is the source-k conditional probability of the
realized state at row t.  The log-likelihood, gradient, and Hessian
in the weights live here, and the standard errors that Hessian gives.

A row is a time step, or, with ``counts``, a distinct (lagged states,
next state) pattern that occurs ``counts[t]`` times: the MTD likelihood
depends on the data only through these counts.  Without ``counts``
every row counts once.

Tensors are stored column-major: the builders stack one contiguous
column per source, so ``q.T`` is a C-order (s, rows) array.  The
Hessian then scales along contiguous rows of ``q.T`` and is one general
matrix product of two distinct operands, which BLAS runs several times
faster than the symmetric rank-k update numpy chooses for ``x.T @ x``.
Each kernel works in place in its own ``q @ w`` array, never in an input.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .inference import EquationReport, equation_report
from .optim import OptimResult


def mixture_loglik(
    weights: np.ndarray, q: np.ndarray, counts: Optional[np.ndarray] = None
) -> float:
    """Sum over rows of counts_t * log(weights . q_t); -inf when any mixture is <= 0."""
    mix = q @ weights
    if (mix <= 0).any():
        return -np.inf
    log_mix = np.log(mix, out=mix)
    return float(log_mix.sum() if counts is None else counts @ log_mix)


def mixture_gradient(
    weights: np.ndarray, q: np.ndarray, counts: Optional[np.ndarray] = None
) -> np.ndarray:
    mix = q @ weights
    return q.T @ np.divide(1.0 if counts is None else counts, mix, out=mix)


def mixture_hessian(
    weights: np.ndarray, q: np.ndarray, counts: Optional[np.ndarray] = None
) -> np.ndarray:
    """Hessian of the mixture log-likelihood: -sum_t counts_t q_t q_t' / (w.q_t)^2."""
    mix = q @ weights
    # two divisions, not one by mix * mix, which underflows to 0 (and a
    # zero entry of q to 0/0) once mix is below about 1e-162; in place,
    # since a second (s, rows) temporary costs more than the product
    left = q.T / mix
    if counts is None:
        left /= mix
    else:
        left *= np.divide(counts, mix, out=mix)
    hess = np.dot(left, q)  # np.dot: less call overhead than @ on small tensors
    return -0.5 * (hess + hess.T)  # the product's two triangles round apart


def _is_flat(q: np.ndarray, weights: np.ndarray, counts: Optional[np.ndarray] = None) -> bool:
    """Likelihood spread across simplex vertices, the center, and the estimate."""
    s = q.shape[1]
    points = [np.eye(s)[v] for v in range(s)]
    points.append(np.full(s, 1.0 / s))
    points.append(weights)
    values = [mixture_loglik(p, q, counts) for p in points]
    finite = [v for v in values if np.isfinite(v)]
    return len(finite) == len(values) and (max(finite) - min(finite)) < 1e-6


def _hessian_std_errors(hess: np.ndarray) -> Optional[np.ndarray]:
    """sqrt(diag(-H^{-1})), or None when the Hessian is singular."""
    # rank-deficient at numpy's tolerance counts as singular, so that the
    # verdict does not hinge on the Hessian's last bits
    if np.linalg.matrix_rank(hess) < hess.shape[0]:
        return None
    try:
        cov = np.linalg.inv(-hess)
    except np.linalg.LinAlgError:
        return None
    diag = np.diag(cov)
    if not np.isfinite(diag).all() or (diag < 0).any():
        return None
    return np.sqrt(diag)


def _weight_report(
    weights: np.ndarray, result: OptimResult, q: np.ndarray, counts: Optional[np.ndarray] = None
) -> tuple[EquationReport, np.ndarray, bool]:
    """Report one equation's solved weights: (report, Hessian, flat flag).

    The Hessian and the standard errors are taken at ``weights``; the
    report's log-likelihood is ``result.value``.
    """
    hess = mixture_hessian(weights, q, counts)
    std_errors = _hessian_std_errors(hess)
    flat = _is_flat(q, weights, counts)
    warnings = []
    if not result.converged:
        warnings.append(f"weight optimization did not converge: {result.message}")
    if (weights < 1e-8).any():
        warnings.append(
            "estimate sits on the simplex boundary; Wald columns are reported "
            "but their asymptotics are unreliable there"
        )
    if flat:
        warnings.append("log-likelihood is nearly flat in the weights; any simplex "
                        "point fits equally well")
    if std_errors is None:
        warnings.append("Hessian is singular; standard errors unavailable")
        std_errors = np.full(weights.size, np.nan)
    return equation_report(weights, std_errors, result.value, warnings=warnings), hess, flat
