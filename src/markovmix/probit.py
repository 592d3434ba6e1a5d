"""Probit-link mixture model over plug-in transition probabilities.

Per equation j, the conditional probability of next state c given every
chain's lagged state is

    Phi(e_0 + sum_k e_k * P_jk(c | lag_k)) normalized over c,

with Phi the standard normal CDF and P_jk the empirical plug-in
transition matrices.  The e parameters are unconstrained reals, so the
likelihood is maximized by BFGS on its closed-form score; the normal CDF
keeps every probability strictly positive.  BFGS asks for the score at
the point its line search has just evaluated, so an equation's objective
and score share one evaluation (the arguments, log Phi and the normalized
log-probabilities) per point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from ._mixture import _hessian_std_errors
from .data import Panel, TransitionMatrix, _check_state, transition_matrix_grid, transition_patterns
from .inference import FitReport, equation_report
from .optim import maximize_unconstrained, numeric_hessian


@dataclass
class ProbitModel:
    etas: np.ndarray  # (s, s+1); row j = (e_j0, e_j1..e_js)
    transmats: list[list[TransitionMatrix]]
    logliks: np.ndarray
    fit_report: FitReport
    converged: list[bool] = field(default_factory=list)

    @property
    def n_chains(self) -> int:
        return self.etas.shape[0]


def probit_distribution(
    transmats: list[list[TransitionMatrix]],
    etas: Sequence[float],
    equation: int,
    lagged_states: Sequence[int],
) -> np.ndarray:
    """Full next-state distribution for one conditioning pattern."""
    rows = transmats[equation]
    if len(lagged_states) != len(rows):
        raise ValueError(f"need {len(rows)} lagged states, got {len(lagged_states)}")
    plugin = []
    for k, (row, lag) in enumerate(zip(rows, lagged_states)):
        _check_state(lag, row.probs.shape[0], f"chain {k} lag state")
        plugin.append(row.probs[lag - 1, :])
    return np.exp(_log_probs(np.asarray(etas, dtype=float), np.stack(plugin)[None])[1][0])


def probit_prob(
    model: ProbitModel, equation: int, lagged_states: Sequence[int], target: int
) -> float:
    """P(next state of the equation's chain = target | lagged states)."""
    dist = probit_distribution(model.transmats, model.etas[equation], equation, lagged_states)
    _check_state(target, len(dist), "target state")
    return float(dist[target - 1])


def probit_loglik(panel: Panel, model: ProbitModel) -> np.ndarray:
    """Per-equation log-likelihood of the panel under the fitted model."""
    return np.array(
        [
            _equation_loglik(
                model.etas[j],
                *_stack_plugin_probs(panel, model.transmats, j),
            )
            for j in range(panel.n_chains)
        ]
    )


def estimate_mtd_probit(
    panel: Panel,
    initial: Optional[Sequence[float]] = None,
    transmats: Optional[list[list[TransitionMatrix]]] = None,
) -> ProbitModel:
    """Maximize the probit-mixture likelihood per equation.

    ``initial`` defaults to all ones, one value per parameter
    (intercept plus one slope per chain).  Each equation is one BFGS
    solve on the closed-form score, which reuses the objective's
    evaluation at the same point; standard errors come from a
    central-difference Hessian at the maximum.  Plug-in transition
    matrices are estimated from the panel unless an explicit grid is
    supplied (e.g. known matrices in simulations).
    """
    s = panel.n_chains
    n_params = s + 1
    init = np.ones(n_params) if initial is None else np.asarray(initial, dtype=float)
    if init.shape != (n_params,):
        raise ValueError(f"initial values must have length {n_params}, got {init.shape}")
    if not np.isfinite(init).all():
        raise ValueError("initial values must be finite")

    if transmats is None:
        transmats = transition_matrix_grid(panel)
    etas = np.zeros((s, n_params))
    logliks = np.empty(s)
    converged: list[bool] = []
    equations = []
    for j in range(s):
        patterns = _stack_plugin_probs(panel, transmats, j)
        evaluate = _last_evaluation()

        def objective(theta: np.ndarray) -> float:
            return _equation_loglik(theta, *patterns, evaluate=evaluate)

        def score(theta: np.ndarray) -> np.ndarray:
            return _equation_score(theta, *patterns, evaluate=evaluate)

        result = maximize_unconstrained(objective, init, gradient=score)
        etas[j] = result.argmax
        logliks[j] = result.value
        converged.append(result.converged)

        hess = numeric_hessian(objective, result.argmax)
        std_errors = _hessian_std_errors(hess)
        warnings = []
        if not result.converged:
            warnings.append(
                f"optimizer did not converge: {result.message} after "
                f"{result.iterations} iterations; final max |score| "
                f"{np.max(np.abs(result.gradient)):.3g}"
            )
        if std_errors is None:
            warnings.append("Hessian is singular; standard errors unavailable")
            std_errors = np.full(n_params, np.nan)
        names = [f"eta{i}" for i in range(n_params)]
        equations.append(
            equation_report(
                result.argmax, std_errors, result.value, row_names=names, warnings=warnings
            )
        )

    return ProbitModel(
        etas=etas,
        transmats=transmats,
        logliks=logliks,
        fit_report=FitReport(equations),
        converged=converged,
    )


def _stack_plugin_probs(
    panel: Panel, transmats: list[list[TransitionMatrix]], equation: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Plug-in tensor (r, s, m) of P_jk(c | lag_k), realized states and counts.

    The likelihood depends on t only through the (lagged states, next
    state) pattern, so there is one row per distinct pattern.
    """
    s = panel.n_chains
    patterns, counts = transition_patterns(panel, equation)
    layers = [transmats[equation][k].probs[patterns[:, k] - 1, :] for k in range(s)]
    return np.stack(layers, axis=1), patterns[:, s] - 1, counts


def _evaluate(etas: np.ndarray, plugin: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Arguments a (r, m), log Phi(a) and the normalized log-probabilities."""
    from scipy.special import log_ndtr, logsumexp  # only a probit fit loads scipy
    # in log space throughout: Phi underflows to 0 for arguments below
    # about -38, but log(Phi) stays finite for any finite argument
    args = etas[0] + np.einsum("rkc,k->rc", plugin, etas[1:])
    log_weights = log_ndtr(args)
    return args, log_weights, log_weights - logsumexp(log_weights, axis=1, keepdims=True)


def _last_evaluation():
    """``_evaluate``, recomputed only when the etas' bits or the plugin change."""
    last = [None, b"", None]

    def evaluate(etas: np.ndarray, plugin: np.ndarray):
        key = etas.tobytes()
        if plugin is not last[0] or key != last[1]:
            last[:] = plugin, key, _evaluate(etas, plugin)
        return last[2]

    return evaluate


def _log_probs(etas: np.ndarray, plugin: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    args, _, log_probs = _evaluate(etas, plugin)
    return args, log_probs


def _equation_loglik(
    etas: np.ndarray, plugin: np.ndarray, realized: np.ndarray, counts: np.ndarray,
    evaluate=_evaluate,
) -> float:
    log_probs = evaluate(etas, plugin)[2]
    return float(counts @ log_probs[np.arange(len(realized)), realized])


def _equation_score(
    etas: np.ndarray, plugin: np.ndarray, realized: np.ndarray, counts: np.ndarray,
    evaluate=_evaluate,
) -> np.ndarray:
    """Closed-form gradient of _equation_loglik in (e_0, e_1..e_s).

    d loglik / d arg_c = count * (1{c = realized} - pi_c) * phi/Phi(arg_c),
    with the inverse Mills ratio phi/Phi taken as exp(log phi - log Phi).
    """
    args, log_weights, log_probs = evaluate(etas, plugin)
    mills = np.exp(-0.5 * args**2 - 0.5 * np.log(2.0 * np.pi) - log_weights)
    hit = np.zeros_like(args)
    hit[np.arange(len(realized)), realized] = 1.0
    d = counts[:, None] * (hit - np.exp(log_probs)) * mills
    return np.concatenate(([d.sum()], np.einsum("rc,rkc->k", d, plugin)))
