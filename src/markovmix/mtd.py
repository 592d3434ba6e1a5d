"""Multimatrix mixture transition distribution model for several chains.

Each equation j mixes lag-one transition probabilities from every chain
with weights on the probability simplex: the conditional distribution
of chain j's next state is sum_k w_jk * P_jk(. | state of chain k).
Transition matrices come from empirical counts; weights are estimated
either by maximum likelihood, one active-set Newton solve on the
simplex per equation, or by the min-max linear program on stationary
distributions.

The likelihood depends on the data only through the counts of distinct
(lagged states of every chain, next state) patterns, so it is scored on
one row per pattern, weighted by its count, not on one row per step.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._mixture import _weight_report, mixture_gradient, mixture_hessian, mixture_loglik
from .data import Panel, TransitionMatrix, count_transitions, empirical_distribution
from .data import _check_state, row_normalize, transition_matrix_grid, transition_patterns
from .exceptions import EstimationError
from .inference import FitReport
from .optim import maximize_simplex


@dataclass
class MtdModel:
    weights: np.ndarray  # (s, s); row j holds equation j's mixture weights
    transmats: list[list[TransitionMatrix]]  # [j][k]
    logliks: np.ndarray
    fit_report: FitReport
    converged: list[bool] = field(default_factory=list)
    flat_likelihood: list[bool] = field(default_factory=list)

    @property
    def n_chains(self) -> int:
        return self.weights.shape[0]


def realized_prob_tensor(panel: Panel, transmats: list[list[TransitionMatrix]], equation: int) -> np.ndarray:
    """(n-1, s) tensor: [t, k] = P_jk(realized state of j at t+1 | state of k at t).

    The per-step form of _pattern_prob_tensor, kept as its oracle.
    """
    s = panel.n_chains
    dst = panel.states[1:, equation] - 1
    cols = []
    for k in range(s):
        src = panel.states[:-1, k] - 1
        cols.append(transmats[equation][k].probs[src, dst])
    return np.array(cols).T


def _pattern_prob_tensor(
    panel: Panel, transmats: list[list[TransitionMatrix]], equation: int
) -> tuple[np.ndarray, np.ndarray]:
    """(r, s) tensor over the r distinct transition patterns, and their counts.

    Row r is realized_prob_tensor's row for any step with pattern r, so
    the count-weighted mixture likelihood on it equals the per-step one.
    """
    patterns, counts = transition_patterns(panel, equation)
    dst = patterns[:, -1] - 1
    q = np.array(
        [transmats[equation][k].probs[patterns[:, k] - 1, dst] for k in range(panel.n_chains)]
    ).T
    return q, counts.astype(float)


def mtd_predict(model: MtdModel, lagged_states) -> list[np.ndarray]:
    """Next-state distribution per equation given every chain's lagged state."""
    lagged = np.asarray(lagged_states)
    s = model.n_chains
    if lagged.shape != (s,):
        raise ValueError(f"need {s} lagged states, got shape {lagged.shape}")
    for k in range(s):
        _check_state(lagged[k], model.transmats[0][k].probs.shape[0], f"chain {k} lag state")
    lagged = lagged.astype(int)
    return [
        sum(model.weights[j, k] * model.transmats[j][k].probs[lagged[k] - 1, :] for k in range(s))
        for j in range(s)
    ]


def mtd_loglik(
    panel: Panel, weights: np.ndarray, transmats: list[list[TransitionMatrix]]
) -> np.ndarray:
    """Per-equation mixture log-likelihood; -inf where a realized step has
    zero mixture probability."""
    weights = np.atleast_2d(np.asarray(weights, dtype=float))
    return np.array(
        [
            mixture_loglik(weights[j], *_pattern_prob_tensor(panel, transmats, j))
            for j in range(panel.n_chains)
        ]
    )


def mtd_hessian(panel: Panel, model: MtdModel) -> list[np.ndarray]:
    """Per-equation Hessian of the log-likelihood in the mixture weights."""
    return [
        mixture_hessian(model.weights[j], *_pattern_prob_tensor(panel, model.transmats, j))
        for j in range(panel.n_chains)
    ]


def estimate_mtd(panel: Panel) -> MtdModel:
    """Estimate mixture weights per equation by maximum likelihood.

    The log-likelihood, scored on the distinct transition patterns with
    their counts, is concave in the weights, so one active-set Newton
    solve on the simplex (``optim.maximize_simplex``) from the uniform
    weights finds its maximum.  ``converged`` holds each solve's KKT
    certificate.
    """
    s = panel.n_chains
    transmats = transition_matrix_grid(panel)
    results, flat_flags, equations = [], [], []
    for j in range(s):
        q, counts = _pattern_prob_tensor(panel, transmats, j)
        result = maximize_simplex(
            lambda w: mixture_loglik(w, q, counts),
            np.full(s, 1.0 / s),
            lambda w: mixture_gradient(w, q, counts),
            lambda w: mixture_hessian(w, q, counts),
            n_obs=counts.sum(),
        )
        report, _, flat = _weight_report(result.argmax, result, q, counts)
        results.append(result)
        flat_flags.append(flat)
        equations.append(report)

    return MtdModel(
        weights=np.array([r.argmax for r in results]),
        transmats=transmats,
        logliks=np.array([r.value for r in results]),
        fit_report=FitReport(equations),
        converged=[r.converged for r in results],
        flat_likelihood=flat_flags,
    )


def estimate_lambda_minmax(panel: Panel) -> np.ndarray:
    """Weights minimizing the worst-coordinate stationary mismatch.

    Per equation j, solves min over simplex weights of
    max_i | sum_k w_k (P_jk' xhat_k)_i - xhat_j_i | as a linear program
    in (weights, bound).
    """
    import scipy.optimize  # only the min-max weights load scipy here
    s = panel.n_chains
    weights = np.empty((s, s))
    for j in range(s):
        basis, target = _stationary_basis(panel, j)
        m_j = target.size
        # variables z = (w_1..w_s, u); minimize u
        c = np.zeros(s + 1)
        c[-1] = 1.0
        a_ub = np.zeros((2 * m_j, s + 1))
        b_ub = np.zeros(2 * m_j)
        a_ub[:m_j, :s] = basis
        a_ub[:m_j, -1] = -1.0
        b_ub[:m_j] = target
        a_ub[m_j:, :s] = -basis
        a_ub[m_j:, -1] = -1.0
        b_ub[m_j:] = -target
        a_eq = np.zeros((1, s + 1))
        a_eq[0, :s] = 1.0
        res = scipy.optimize.linprog(
            c,
            A_ub=a_ub,
            b_ub=b_ub,
            A_eq=a_eq,
            b_eq=np.array([1.0]),
            bounds=[(0.0, None)] * s + [(0.0, None)],
            method="highs",
        )
        if not res.success:
            raise EstimationError(f"equation {j}: min-max linear program failed: {res.message}")
        weights[j] = res.x[:s]
    return weights


def minmax_objective(panel: Panel, equation: int, weights: np.ndarray) -> float:
    """Worst-coordinate stationary mismatch for one equation's weights."""
    basis, target = _stationary_basis(panel, equation)
    return float(np.max(np.abs(basis @ np.asarray(weights) - target)))


def _stationary_basis(panel: Panel, equation: int) -> tuple[np.ndarray, np.ndarray]:
    """Min-max basis and target for one equation.

    Column k is chain j's distribution predicted from chain k's
    empirical profile, P_jk' xhat_k; the target is xhat_j.
    """
    dists = [empirical_distribution(panel, k) for k in range(panel.n_chains)]
    columns = []
    for k, dist in enumerate(dists):
        transmat = row_normalize(count_transitions(panel, from_chain=k, to_chain=equation))
        columns.append(transmat.probs.T @ dist)
    return np.column_stack(columns), dists[equation]
