"""Covariate-driven multivariate Markov chain mixture estimation.

Per equation j, the next-state distribution of chain j mixes
non-homogeneous conditionals P(S_j,t | S_k,t-1, x) across source chains
k with weights on the probability simplex.  The conditionals are
multinomial-logit fits, estimated first and treated as plug-ins.  A fit
holds only what ``save_fit`` stores: the training tensors, smoothed
paths and transition matrices all evaluate a submodel's ``predict_probs``
on mnlogit's one design layout, so a loaded fit predicts as its fresh
fit does.  The weights then maximize the mixture log-likelihood by an
Augmented Lagrangian on the probability simplex, whose inner Newton
steps use the analytic mixture Hessian and share one ``q @ w`` per point.
Standard errors come from the analytic Hessian in the weights at the optimum
(first-stage uncertainty is not propagated, a documented understatement).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from ._mixture import _weight_report, mixture_gradient, mixture_hessian, mixture_loglik
from .data import CovariateMatrix, Panel, _check_chain, _check_state, moving_average
from .exceptions import DataError, EstimationError
from .inference import FitReport, equation_report
from .mnlogit import (
    DesignSpec, MnLogitModel, _check_design, _lag_design, build_design, fit_mnlogit, predict_probs,
)
from .optim import maximize_auglag, project_simplex
from .schemas import FIT_SCHEMA, check_structure

FIT_FORMAT = "markovmix-gmmc-fit"
FIT_VERSION = 1


@dataclass
class GmmcFit:
    """Fitted covariate mixture: weights, submodels, and inference columns."""

    weights: np.ndarray  # (s, s); row j = equation j's mixture weights
    submodels: list[list[MnLogitModel]]  # [j][k]
    logliks: np.ndarray
    hessians: list[np.ndarray]
    fit_report: FitReport
    alphabet_sizes: tuple[int, ...]
    labels: list[list]
    x_lag: int
    covariate_names: list[str]
    converged: list[bool] = field(default_factory=list)

    @property
    def n_chains(self) -> int:
        return self.weights.shape[0]


def build_prob_tensor(
    panel: Panel,
    covariates: CovariateMatrix,
    x_lag: int = 1,
) -> tuple[list[np.ndarray], list[list[MnLogitModel]]]:
    """Fit the per-(equation, source) logits and evaluate realized probabilities.

    Returns, per equation j: a (rows, s) tensor whose [t, k] entry is
    the fitted probability of the realized state of chain j at step t
    conditional on chain k's lagged state and the covariate row; and the
    fitted submodels.  A design depends only on its source chain k, so
    each is built, checked and prepared once and serves all s equations.
    """
    s = panel.n_chains
    q_cols: list[list[np.ndarray]] = [[] for _ in range(s)]  # [j][k]: realized-state column
    submodels: list[list[MnLogitModel]] = [[] for _ in range(s)]
    for k in range(s):
        design, _, spec = build_design(panel, k, k, covariates, x_lag)
        # equation j's response is chain j on the design's rows, the panel's last ones
        for j, response in enumerate(panel.states[-len(design):].T):
            try:
                if j == 0:  # so a design fault names equation 0
                    checked = _check_design(design, spec)
                model = fit_mnlogit(
                    checked, response, n_states=panel.alphabet_sizes[j], spec=spec
                )
            except (DataError, EstimationError) as err:
                raise type(err)(
                    f"conditional fit for equation {j}, source chain {k}: {err}"
                ) from err
            q_cols[j].append(predict_probs(model, design)[np.arange(len(response)), response - 1])
            submodels[j].append(model)
    return [np.array(cols).T for cols in q_cols], submodels


def _product_memo(q: np.ndarray):
    """``w -> q @ w``, recomputed only when w's bits change."""
    last = [b"", None]

    def product(w: np.ndarray) -> np.ndarray:
        if w.tobytes() != last[0]:
            last[:] = w.tobytes(), q @ w
        return last[1]

    return product


def gmmc_loglik(weights: Sequence[float], tensor: np.ndarray) -> float:
    """Mixture log-likelihood: sum_t log(weights . q_t); -inf on zero mixture."""
    return mixture_loglik(np.asarray(weights, dtype=float), tensor)


def gmmc_hessian(weights: Sequence[float], tensor: np.ndarray) -> np.ndarray:
    """Analytic Hessian -sum_t q_t q_t' / (w.q_t)^2 of the mixture log-likelihood."""
    return mixture_hessian(np.asarray(weights, dtype=float), tensor)


def estimate_gmmc(
    panel: Panel,
    covariates: CovariateMatrix,
    initial: Optional[Sequence[float]] = None,
    x_lag: int = 1,
) -> GmmcFit:
    """Constrained MLE of the mixture weights, one equation at a time.

    ``initial`` is projected onto the simplex before use (so the
    all-ones convention is accepted); the default start is uniform.
    """
    s = panel.n_chains
    if s < 2:
        raise DataError("need at least 2 chains; a single chain has nothing to mix")
    if initial is None:
        start = np.full(s, 1.0 / s)
    else:
        start = np.asarray(initial, dtype=float)
        if start.shape != (s,):
            raise ValueError(f"initial weights must have length {s}, got {start.shape}")
        if not np.isfinite(start).all():
            raise ValueError("initial weights must be finite")
        start = project_simplex(start)

    tensors, submodels = build_prob_tensor(panel, covariates, x_lag=x_lag)

    weights = np.empty((s, s))
    logliks = np.empty(s)
    hessians: list[np.ndarray] = []
    converged: list[bool] = []
    equations = []
    for j in range(s):
        q, product = tensors[j], _product_memo(tensors[j])
        result = maximize_auglag(
            lambda w: mixture_loglik(w, q, product=product),
            start,
            lambda w: mixture_gradient(w, q, product=product),
            lambda w: mixture_hessian(w, q, product=product),
        )
        # the solver satisfies the constraints to tolerance; snap the last
        # ~1e-7 onto the simplex so downstream invariants hold exactly
        lam = project_simplex(result.argmax)
        weights[j] = lam
        logliks[j] = mixture_loglik(lam, q)
        converged.append(result.converged)
        report, hess, _ = _weight_report(lam, result, q)
        hessians.append(hess)
        equations.append(report)

    return GmmcFit(
        weights=weights,
        submodels=submodels,
        logliks=logliks,
        hessians=hessians,
        fit_report=FitReport(equations),
        alphabet_sizes=panel.alphabet_sizes,
        labels=panel.labels,
        x_lag=x_lag,
        covariate_names=list(covariates.column_names),
        converged=converged,
    )


def conditional_distribution(
    fit: GmmcFit, equation: int, lagged_states: Sequence[int], x_value
) -> np.ndarray:
    """Mixture next-state distribution at explicit per-chain lagged states."""
    _check_chain(fit, equation)
    x_value = _check_x(fit, x_value)
    lagged = list(lagged_states)
    if len(lagged) != fit.n_chains:
        raise DataError(f"need {fit.n_chains} lagged states, got {len(lagged)}")
    for state, model in zip(lagged, fit.submodels[equation]):
        _check_state(state, model.spec.n_source_states, "lag state")
    return _mixture_rows(fit, equation, [lagged], x_value)[0]


def conditional_transition_matrix(fit: GmmcFit, equation: int, x_value) -> np.ndarray:
    """Equation-level transition matrix at a covariate value.

    Row i is the mixture distribution of the equation's next state when
    every lagged chain sits in the source state with label
    ``fit.labels[equation][i]``; chains must share that label.  Rows are
    mixtures of distributions, so they sum to one for any covariate
    value.
    """
    _check_chain(fit, equation)
    x_value = _check_x(fit, x_value)
    lag_rows = []
    for label in fit.labels[equation]:
        row = []
        for k in range(fit.n_chains):
            try:
                row.append(fit.labels[k].index(label) + 1)
            except ValueError:
                raise DataError(
                    f"source label {label!r} of equation {equation} does not occur "
                    f"in chain {k}; same-state conditioning needs a shared alphabet"
                ) from None
        lag_rows.append(row)
    return _mixture_rows(fit, equation, lag_rows, x_value)


def _mixture_rows(fit: GmmcFit, equation: int, lag_rows, x_value: np.ndarray) -> np.ndarray:
    """Mixture next-state rows at per-chain lagged states: one design per submodel."""
    lag_rows = np.asarray(lag_rows)
    x_rows = np.broadcast_to(x_value, (len(lag_rows), len(x_value)))
    return sum(
        fit.weights[equation, k]
        * predict_probs(model, _lag_design(lag_rows[:, k], x_rows, model.spec.n_source_states))
        for k, model in enumerate(fit.submodels[equation])
    )


def transition_edge_list(fit: GmmcFit, equation: int, x_value) -> list[tuple]:
    """(source_state, dest_state, probability) rows with original labels."""
    matrix = conditional_transition_matrix(fit, equation, x_value)
    labels = fit.labels[equation]
    return [
        (labels[i], labels[c], float(matrix[i, c]))
        for i in range(matrix.shape[0])
        for c in range(matrix.shape[1])
    ]


def smoothed_conditional_probs(
    fit: GmmcFit, panel: Panel, covariates: CovariateMatrix, equation: int,
    source_chain: int, window: int = 5,
) -> np.ndarray:
    """Moving-average-smoothed fitted probability paths, one column per state.

    Smooths one submodel's P(S_j,t = c | S_k,t-1, x) on the rows of
    ``panel`` and ``covariates`` (the training data give the fitted paths)
    with a trailing window; output has rows - window + 1 time points.
    """
    d = len(fit.covariate_names)
    if panel.alphabet_sizes != fit.alphabet_sizes or covariates.n_covariates != d:
        raise DataError(
            f"alphabet sizes {panel.alphabet_sizes} and {covariates.n_covariates} covariate(s) "
            f"do not match the fit's {fit.alphabet_sizes} and {d}"
        )
    _check_chain(panel, equation)
    _check_chain(panel, source_chain)
    design = build_design(panel, source_chain, equation, covariates, fit.x_lag)[0]
    paths = predict_probs(fit.submodels[equation][source_chain], design)
    return np.column_stack(
        [moving_average(paths[:, c], window=window) for c in range(paths.shape[1])]
    )


def save_fit(fit: GmmcFit, path) -> None:
    """Serialize a fit to versioned JSON (enough to rebuild predictions)."""
    doc = {
        "format": FIT_FORMAT,
        "version": FIT_VERSION,
        "n_chains": fit.n_chains,
        "alphabet_sizes": list(fit.alphabet_sizes),
        "labels": [[_json_label(v) for v in lab] for lab in fit.labels],
        "x_lag": fit.x_lag,
        "covariate_names": fit.covariate_names,
        "converged": [bool(c) for c in fit.converged],
        "weights": fit.weights.tolist(),
        "logliks": fit.logliks.tolist(),
        "hessians": [h.tolist() for h in fit.hessians],
        "report": fit.fit_report.to_dict(),
        "submodels": [
            [
                {
                    "coefficients": model.coefficients.tolist(),
                    "n_states": model.n_states,
                    "n_source_states": model.spec.n_source_states,
                    "n_covariates": model.spec.n_covariates,
                    "column_names": model.spec.column_names,
                    "loglik": model.loglik,
                    "converged": model.converged,
                    "separation": model.separation,
                }
                for model in row
            ]
            for row in fit.submodels
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_fit(path) -> GmmcFit:
    """Rebuild a GmmcFit from its JSON serialization.

    The sizes of the fields must agree, the weight rows must lie on the
    simplex and the coefficients must be finite; a file that breaks any
    of this is a DataError naming the field.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as err:  # malformed JSON or text that is not UTF-8
            raise DataError(f"{path}: not a JSON document ({err})") from None
    fit_format = doc.get("format") if isinstance(doc, dict) else None
    if fit_format != FIT_FORMAT:
        raise DataError(f"{path}: not a serialized fit (format={fit_format!r})")
    if doc.get("version") != FIT_VERSION:
        raise DataError(f"{path}: unsupported fit version {doc.get('version')!r}")
    check_structure(doc, FIT_SCHEMA, str(path))

    s, sizes, d = doc["n_chains"], doc["alphabet_sizes"], len(doc["covariate_names"])
    for name in ("alphabet_sizes", "labels", "submodels"):
        _check_length(doc[name], s, path, f"document.{name}")
    for j, labels in enumerate(doc["labels"]):
        _check_length(labels, sizes[j], path, f"document.labels[{j}]")
    weights = _float_array(doc["weights"], (s, s), path, "document.weights", finite=True)
    if (weights < 0).any() or (np.abs(weights.sum(axis=1) - 1.0) > 1e-9).any():
        raise DataError(f"{path}: field document.weights has a row off the probability simplex")
    x_lag = doc["x_lag"]
    submodels = []
    for j, row in enumerate(doc["submodels"]):
        _check_length(row, s, path, f"document.submodels[{j}]")
        submodels.append([])
        for k, entry in enumerate(row):
            field_name = f"document.submodels[{j}][{k}]"
            for key, expected in (
                ("n_states", sizes[j]), ("n_source_states", sizes[k]), ("n_covariates", d)
            ):
                if entry[key] != expected:
                    raise DataError(
                        f"{path}: field {field_name}.{key} is {entry[key]}; expected {expected}"
                    )
            coefficients = _float_array(
                entry["coefficients"], (sizes[j] - 1, sizes[k] + d), path,
                f"{field_name}.coefficients", finite=True,
            )
            submodels[j].append(MnLogitModel(
                coefficients=coefficients,
                n_states=sizes[j],
                spec=DesignSpec(sizes[k], d, list(entry["column_names"])),
                loglik=float(_float_array(entry["loglik"], (), path, f"{field_name}.loglik")),
                converged=entry["converged"],
                iterations=0,
                separation=entry["separation"],
            ))
    equations, name = doc["report"]["equations"], "document.report.equations"
    _check_length(equations, s, path, name)
    report = FitReport(
        [
            equation_report(
                _float_array(eq["estimates"], (s,), path, f"{name}[{j}].estimates"),
                _float_array(
                    [np.nan if v is None else v for v in eq["std_errors"]], (s,), path,
                    f"{name}[{j}].std_errors",
                ),
                float(_float_array(eq["loglik"], (), path, f"{name}[{j}].loglik")),
                warnings=list(eq["warnings"]),
            )
            for j, eq in enumerate(equations)
        ]
    )
    return GmmcFit(
        weights=weights,
        submodels=submodels,
        logliks=_float_array(doc["logliks"], (s,), path, "document.logliks"),
        hessians=list(_float_array(doc["hessians"], (s, s, s), path, "document.hessians")),
        fit_report=report,
        alphabet_sizes=tuple(sizes),
        labels=[list(lab) for lab in doc["labels"]],
        x_lag=x_lag,
        covariate_names=list(doc["covariate_names"]),
        converged=[bool(c) for c in doc["converged"]],
    )


def _check_length(items: list, n: int, path, field_name: str) -> None:
    if len(items) != n:
        raise DataError(f"{path}: field {field_name} has {len(items)} entries; expected {n}")


def _float_array(value, shape: tuple, path, field_name: str, finite: bool = False) -> np.ndarray:
    """A fit-file field as a float array of ``shape``; DataError naming the field if not."""
    try:
        array = np.array(value, dtype=float)
    except (TypeError, ValueError, OverflowError):  # ragged, not numbers, or past float range
        raise DataError(
            f"{path}: field {field_name} is not a numeric array of shape {shape}"
        ) from None
    if array.shape != shape:
        raise DataError(f"{path}: field {field_name} has shape {array.shape}; expected {shape}")
    if finite and not np.isfinite(array).all():
        raise DataError(f"{path}: field {field_name} has non-finite entries")
    return array


def _json_label(value):
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


def _check_x(fit: GmmcFit, x_value) -> np.ndarray:
    x_value = np.atleast_1d(np.asarray(x_value, dtype=float))
    d = len(fit.covariate_names)
    if x_value.shape != (d,):
        raise DataError(
            f"covariate value has shape {x_value.shape}; fit expects {d} value(s) "
            f"({', '.join(fit.covariate_names)})"
        )
    if not np.isfinite(x_value).all():
        raise DataError(f"covariate value {x_value.tolist()} is not finite")
    return x_value
