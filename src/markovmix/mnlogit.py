"""Multinomial logistic regression for lag-state + covariate designs.

Estimates the non-homogeneous conditional probabilities
P(next state of chain j | previous state of chain k, covariates) by
Newton-Raphson maximum likelihood with state 1 as the reference
category.  Designs are built with an intercept, indicator columns for
lag states 2..m_k, and the covariate row assigned to the predicted
time step (covariate lag is caller-controlled, default 1).

That layout is written once, in ``_lag_design``, and the softmax once,
in ``_evaluate``: the fit, GMMC's conditional transition matrices and
both Monte Carlo generators in ``simulation`` go through them.

The fit runs on the design's nonzero columns at unit max-abs scale, the
matrix the rank check builds, and is converged when the Newton decrement
score' info^-1 score is at most ``DECREMENT_TOL`` per observation; neither
depends on the columns' units (Boyd & Vandenberghe 2004, section 9.5).

The likelihood works category-major, on the design as (p, n) and the
logits as (m-1, n), so softmax reductions run along axis 0 and not
along the short rows of an (n, m) array.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .data import CovariateMatrix, Panel
from .exceptions import DataError, EstimationError

DECREMENT_TOL = 1e-9  # per observation
MAX_NEWTON_ITER = 100
SEPARATION_BOUND = 30.0
RIDGE = 1e-8


@dataclass
class DesignSpec:
    """Column layout of a lag-state design matrix."""

    n_source_states: int  # m_k: lag alphabet (gives m_k - 1 indicator columns)
    n_covariates: int
    column_names: list[str] = field(default_factory=list)

    @property
    def n_columns(self) -> int:
        return 1 + (self.n_source_states - 1) + self.n_covariates


@dataclass
class MnLogitModel:
    """Fitted multinomial logit: (m_j - 1) x p coefficients, reference state 1."""

    coefficients: np.ndarray
    n_states: int  # m_j: target alphabet
    spec: DesignSpec
    loglik: float
    converged: bool
    iterations: int
    separation: bool = False

    def __post_init__(self):
        self.coefficients = np.atleast_2d(np.asarray(self.coefficients, dtype=float))
        if self.coefficients.shape != (self.n_states - 1, self.spec.n_columns):
            raise ValueError(
                f"coefficient shape {self.coefficients.shape} does not match "
                f"({self.n_states - 1}, {self.spec.n_columns})"
            )


def build_design(
    panel: Panel,
    from_chain: int,
    to_chain: int,
    covariates: Optional[CovariateMatrix] = None,
    x_lag: int = 1,
) -> tuple[np.ndarray, np.ndarray, DesignSpec]:
    """Design matrix and response for a lag-one regression between chains.

    One row per predicted time step: response is the target chain's
    state at t, predictors are an intercept, indicators of the source
    chain's state at t-1, and the covariate row for time t - x_lag.
    With the default lag of 1 the covariate is the one observed
    alongside the lagged states.
    """
    if x_lag < 0:
        raise ValueError(f"x_lag must be >= 0, got {x_lag}")
    n = panel.n_obs
    d = covariates.n_covariates if covariates is not None else 0
    if covariates is not None and covariates.n_obs != n:
        raise DataError(
            f"covariates have {covariates.n_obs} rows for a panel of length {n}"
        )
    m_k = panel.alphabet_sizes[from_chain]

    first = max(1, x_lag)
    t_idx = np.arange(first, n)  # 0-based indices of the predicted observations
    if t_idx.size == 0:
        raise DataError(f"x_lag {x_lag} leaves no usable rows for a panel of length {n}")
    design = _lag_design(
        panel.states[t_idx - 1, from_chain],
        None if covariates is None else covariates.values[t_idx - x_lag, :],
        m_k,
    )
    names = ["intercept", *(f"lag{from_chain}=={state}" for state in range(2, m_k + 1))]
    if covariates is not None:
        names.extend(covariates.column_names)
    return design, panel.states[t_idx, to_chain], DesignSpec(m_k, d, names)


def _lag_design(lag_states, covariate_rows, n_source_states: int) -> np.ndarray:
    """(n, p) design in the one logit layout: intercept, lag states 2..m_k, covariates.

    Lag state 1 is the reference level; ``covariate_rows`` may be None.
    """
    lag_states = np.asarray(lag_states)
    cols = [np.ones(lag_states.size), lag_states[:, None] == np.arange(2, n_source_states + 1)]
    if covariate_rows is not None:
        cols.append(covariate_rows)
    return np.column_stack(cols)


def mnlogit_loglik(coefficients: np.ndarray, design: np.ndarray, response: np.ndarray) -> float:
    """Multinomial log-likelihood at the given (m-1, p) coefficients."""
    return _evaluate(coefficients, design.T, _onehot(coefficients, response))[0]


def mnlogit_score(coefficients: np.ndarray, design: np.ndarray, response: np.ndarray) -> np.ndarray:
    """Analytic score, flattened to match ``coefficients.ravel()``."""
    onehot = _onehot(coefficients, response)
    return _score(design.T, onehot, _evaluate(coefficients, design.T, onehot)[1])


def _mnlogit_hessian(coefficients: np.ndarray, design: np.ndarray) -> np.ndarray:
    """Analytic Hessian of the log-likelihood on the stacked coefficients."""
    return _hessian(design.T, _evaluate(coefficients, design.T, None)[1])


def _onehot(coefficients: np.ndarray, response: np.ndarray) -> np.ndarray:
    """(m-1, n) indicators 1{y_t = c} of the non-reference states c = 2..m."""
    states = np.arange(2, len(np.atleast_2d(coefficients)) + 2)[:, None]
    return (np.asarray(response)[None, :] == states).astype(float)


def _evaluate(coefficients, design_t: np.ndarray, onehot, out=None) -> tuple[float, np.ndarray]:
    """Log-likelihood and (m, n) probabilities at the (p, n) transposed design.

    The logits are (m-1, n), so every reduction runs along axis 0, across
    the states of one step; row 0 of the probabilities is the reference.
    The logits go into rows 1.. of ``out`` (new when None), which is then
    shifted, exponentiated and normalized in place and returned.
    ``onehot`` is None where only the probabilities are wanted.
    """
    coefficients = np.atleast_2d(coefficients)
    out = np.empty((len(coefficients) + 1, design_t.shape[1])) if out is None else out
    logits = np.matmul(coefficients, design_t, out=out[1:])
    realized = 0.0 if onehot is None else np.vdot(onehot, logits)
    top = logits.max(axis=0)
    np.maximum(top, 0.0, out=top)
    np.negative(top, out=out[0])
    logits -= top
    with np.errstate(under="ignore"):  # a probability below 1e-308 is 0
        np.exp(out, out=out)
        total = out.sum(axis=0)
        out /= total
    log_norm = np.log(total, out=total)
    log_norm += top
    return float(realized - log_norm.sum()), out


def _score(design_t: np.ndarray, onehot: np.ndarray, probs: np.ndarray, out=None) -> np.ndarray:
    # (m-1, p) blocks X' (1{y=c} - P_c), the difference written into ``out``
    return (np.subtract(onehot, probs[1:], out=out) @ design_t.T).ravel()


def _hessian(design_t: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """Blocks -X' diag(P_a (1{a=b} - P_b)) X; one weight row and one weighted design serve all."""
    k, p = probs.shape[0] - 1, design_t.shape[0]
    hess = np.empty((k * p, k * p))
    w, weighted = np.empty(design_t.shape[1]), np.empty_like(design_t)
    for a in range(k):
        for b in range(a, k):
            np.subtract(probs[b + 1], 1.0 if a == b else 0.0, out=w)  # minus the weight
            w *= probs[a + 1]
            np.multiply(design_t, w, out=weighted)
            hess[a * p : (a + 1) * p, b * p : (b + 1) * p] = block = weighted @ design_t.T
            if b != a:
                hess[b * p : (b + 1) * p, a * p : (a + 1) * p] = block.T
    return hess


@dataclass(frozen=True)
class _CheckedDesign:
    """A design that passed ``_check_design``, prepared once for all its fits: the
    ``active`` (nonzero) columns over their ``scales``, transposed and C-contiguous."""

    scaled_t: np.ndarray
    scales: np.ndarray
    active: np.ndarray


def fit_mnlogit(
    design: np.ndarray | _CheckedDesign, response: np.ndarray, n_states: Optional[int] = None,
    spec: Optional[DesignSpec] = None,
) -> MnLogitModel:
    """Newton-Raphson maximum likelihood for the multinomial logit.

    Fits the nonzero columns on unit max-abs scale and returns the
    coefficients in the design's own units.  Converged means the Newton
    decrement fell to ``DECREMENT_TOL`` per observation; the final full
    Newton step is then taken.  A singular information matrix gets a
    small ridge; scaled coefficients walking past |b| = 30 flag likely
    perfect separation (the fit is still returned).  A rank-deficient
    design is an error naming the dependent columns, a non-finite Newton
    step an EstimationError.  A design passed as its ``_check_design``
    result is not checked or prepared again, so several responses share
    that work.
    """
    response = np.asarray(response, dtype=int)
    if n_states is None:
        n_states = int(response.max())
    if n_states < 2:
        raise DataError(f"response has {n_states} state; a multinomial logit needs at least 2")
    # counts of states 1..n_states; clipping keeps any other value out of them
    counts = np.bincount(np.clip(response, 0, n_states + 1), minlength=n_states + 2)[1:-1]
    missing = (np.flatnonzero(counts == 0) + 1).tolist()
    if missing:
        raise DataError(f"response states {missing} never observed; cannot fit {n_states} states")
    checked = design if isinstance(design, _CheckedDesign) else _check_design(design, spec)
    p = checked.active.size

    beta_scaled, ll, converged, iterations = _newton_fit(checked.scaled_t, response, n_states)
    beta = np.zeros((n_states - 1, p))
    beta[:, checked.active] = beta_scaled / checked.scales

    # perfect separation: coefficients diverging on the unit-scaled columns, or
    # in-sample likelihood at its supremum (every outcome predicted certainly)
    separation = bool(np.max(np.abs(beta_scaled)) > SEPARATION_BOUND or ll > -1e-6)
    if spec is None:
        # generic spec for designs not built by build_design: every column
        # beyond the first is a covariate
        spec = DesignSpec(1, p - 1, [f"x{i}" for i in range(p)])
    return MnLogitModel(
        coefficients=beta,
        n_states=n_states,
        spec=spec,
        loglik=ll,
        converged=converged,
        iterations=iterations,
        separation=separation,
    )


def _newton_fit(design_t: np.ndarray, response: np.ndarray, n_states: int):
    """Newton-Raphson core; returns (coefficients, loglik, converged, iterations).

    ``design_t`` is the (p, n) transposed design.  Two (m, n) arrays serve
    the whole fit: the iterate's probabilities, which give its score and
    Hessian, and a spare, which takes the score's residual and then each
    line-search candidate; the two swap when a candidate is accepted.
    """
    beta = np.zeros((n_states - 1, design_t.shape[0]))
    onehot = _onehot(beta, response)
    probs, spare = np.empty((2, n_states, design_t.shape[1]))
    ll = _evaluate(beta, design_t, onehot, probs)[0]
    tol = DECREMENT_TOL * design_t.shape[1]
    for iterations in range(1, MAX_NEWTON_ITER + 1):
        score = _score(design_t, onehot, probs, spare[1:])
        info = -_hessian(design_t, probs)
        try:
            step = np.linalg.solve(info, score)
        except np.linalg.LinAlgError:
            step = np.linalg.solve(info + RIDGE * np.eye(info.shape[0]), score)
        if not np.isfinite(step).all():
            raise EstimationError("first-stage information matrix overflowed")
        converged = bool(score @ step <= tol)  # the Newton decrement certifies a full step
        # otherwise halve the step until the likelihood does not fall; after
        # 40 failed halvings the smallest step is taken regardless
        for halvings in range(41):
            candidate = beta + 0.5**halvings * step.reshape(beta.shape)
            ll_new = _evaluate(candidate, design_t, onehot, spare)[0]
            if converged or halvings == 40 or ll_new >= ll:
                break
        beta, ll, probs, spare = candidate, ll_new, spare, probs
        if converged:
            break
    return beta, ll, converged, iterations


def predict_probs(model: MnLogitModel, design: np.ndarray) -> np.ndarray:
    """Predicted probability rows (softmax over the reference-coded logits)."""
    design = np.atleast_2d(np.asarray(design, dtype=float))
    if design.shape[1] != model.coefficients.shape[1]:
        raise DataError(
            f"design has {design.shape[1]} columns; model expects "
            f"{model.coefficients.shape[1]}"
        )
    return _evaluate(model.coefficients, design.T, None)[1].T


def _check_design(design: np.ndarray, spec: Optional[DesignSpec] = None) -> _CheckedDesign:
    """The design prepared for fitting; DataError if its nonzero columns cannot carry a fit.

    A zero column (an all-zero covariate, a never-visited lag state) never
    enters a prediction, so its coefficients are pinned at 0.
    """
    design = np.asarray(design, dtype=float)
    nrows, p = design.shape
    if nrows < p + 1:
        raise DataError(f"{nrows} rows cannot support {p} design columns")
    return _CheckedDesign(*_check_rank(design, spec))


def _check_rank(
    design: np.ndarray, spec: Optional[DesignSpec]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The nonzero columns on unit max-abs scale as (p, n) rows, their scales and
    their mask; DataError if the design is non-finite, zero or rank deficient."""
    columns = np.ascontiguousarray(design.T)  # max |x| along contiguous rows
    scales = np.max(np.abs(columns), axis=1)  # NaN or inf where a column has one
    if not np.isfinite(scales).all():  # the SVD below would not converge
        raise DataError("design contains non-finite entries")
    active = scales > 0.0
    if not active.any():
        raise DataError("design has no nonzero column")
    # the scaled verdict ignores the covariates' units; a full matrix_rank
    # is pivoted QR's verdict too (sigma_min <= min |R_kk|, sigma_max >= |R_00|)
    scaled = columns[active].T / scales[active]
    if np.linalg.matrix_rank(scaled) < scaled.shape[1]:
        import scipy.linalg  # only a design that fails the screen loads scipy
        _, r, pivots = scipy.linalg.qr(scaled, mode="economic", pivoting=True)
        diag = np.abs(np.diag(r))
        rank = int((diag > diag[0] * max(scaled.shape) * np.finfo(float).eps).sum())
        if rank < scaled.shape[1]:
            bad = sorted(int(np.flatnonzero(active)[c]) for c in pivots[rank:])
            if spec is not None and spec.column_names:
                names = [spec.column_names[c] for c in bad]
                raise DataError(f"design is rank deficient; dependent columns: {names}")
            raise DataError(f"design is rank deficient; dependent column indices: {bad}")
    return np.ascontiguousarray(scaled.T), scales[active], active
