"""Monte Carlo studies of the covariate-mixture estimator's Wald tests.

Part I plants one covariate-driven (non-homogeneous) chain next to one
homogeneous chain and measures how often the Wald tests detect the
mixture weights (1, 0): rejecting the true weights is the test
dimension (size), rejecting the false ones is the power.  Part II
generates both chains from an assigned weight mixture of a
wide-range ("persistent") source-1 conditional and a moderate source-2
conditional, then tests the weights against their assigned values and
against zero.

Both generators take their transition probabilities from mnlogit's
design layout and softmax, the logit the estimator fits; Part II's
binary (base, slope) pairs are converted to its reduced coefficients.

Every study is reproducible: study-level draws (generating
coefficients, the homogeneous transition matrix) come from a stream
keyed by (seed, 0) and each replication r from (seed, 1, r), so serial
and parallel execution aggregate to identical reports.  A replication
fails when a chain never visits one of its states, the weight solve
does not converge, equation 1 has no standard errors, or a linear solve
is singular.  Failures are counted and excluded from the rates; a study
aborts if more than 5% fail, because silently dropping more would bias
the rates.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .data import CovariateMatrix, Panel
from .exceptions import DataError, EstimationError
from .gmmc import estimate_gmmc
from .inference import wald_test
from .mnlogit import _evaluate, _lag_design

# covariate distribution: mean 2, variance 25 (sd 5)
X_MEAN = 2.0
X_SD = 5.0

# Part I generator: base logits uniform on +/- scale, a persistence bonus
# on own-state logits, covariate slopes uniform on +/- slope scale, and a
# probability floor on the homogeneous chain's rows so every state keeps
# getting visited at small n
PART1_COEF_SCALE = 1.0
PART1_PERSIST_BONUS = 0.5
PART1_SLOPE_SCALE = 1.0
PART1_MIN_TRANS_PROB = 0.02

# Part II generator: source-1 conditionals sweep a wide probability range
# (persistent regimes), source-2 conditionals stay moderate
PART2_EXTREME_BASE = 0.65
PART2_EXTREME_SLOPE = 0.45
PART2_MODERATE_BASE = 0.8
PART2_MODERATE_SLOPE = 0.02

MAX_FAILURE_SHARE = 0.05


@dataclass
class SimConfig:
    n_obs: int
    n_reps: int = 1000
    states: int = 2
    scenario: str = "part1"
    lambda_true: tuple[float, ...] = ()
    seed: int = 7
    alpha: float = 0.05

    def __post_init__(self):
        if self.n_obs < 20:
            raise ValueError(f"n_obs must be >= 20, got {self.n_obs}")
        if self.n_reps < 1:
            raise ValueError(f"n_reps must be >= 1, got {self.n_reps}")
        if self.scenario not in ("part1", "part2"):
            raise ValueError(f"scenario must be part1 or part2, got {self.scenario!r}")
        if self.scenario == "part1" and self.states not in (2, 3):
            raise ValueError(f"part1 supports 2 or 3 states, got {self.states}")
        if self.scenario == "part2":
            if self.states != 2:
                raise ValueError("part2 is a two-state design")
            lam = np.asarray(self.lambda_true, dtype=float)
            if lam.shape != (2,) or (lam < 0).any() or abs(lam.sum() - 1.0) > 1e-8:
                raise ValueError(
                    f"part2 needs lambda_true on the 2-simplex, got {self.lambda_true}"
                )
        if not 0 < self.alpha < 1:
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")


@dataclass
class SimReport:
    scenario: str
    states: int
    n_obs: int
    n_reps: int
    seed: int
    alpha: float
    hypotheses: list[str]
    rejection_rates: list[float]
    dimension: float
    power: float
    n_failed: int
    generator: dict
    lambda_true: Optional[list[float]] = None
    lambda_mean: Optional[list[float]] = None
    lambda_mean_abs_error: Optional[float] = None
    lambda_abs_errors: Optional[list[float]] = None

    def to_dict(self) -> dict:
        """Every field; the lambda_* fields only for Part II, which sets them."""
        return {key: value for key, value in asdict(self).items() if value is not None}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def to_csv_rows(self) -> list[tuple[str, int, float]]:
        return [
            (hyp, self.n_obs, rate)
            for hyp, rate in zip(self.hypotheses, self.rejection_rates)
        ]


def study_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, 0)))


def replication_rng(seed: int, rep: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, 1, rep)))


def simulate_homog_chain(
    transition, n: int, init_state: int = 1, rng: Optional[np.random.Generator] = None
) -> np.ndarray:
    """Simulate a homogeneous chain from a row-stochastic matrix."""
    probs = np.asarray(getattr(transition, "probs", transition), dtype=float)
    if rng is None:
        rng = np.random.default_rng()
    cum = probs.cumsum(axis=1)
    return _walk(np.broadcast_to(cum, (n - 1, *cum.shape)), rng.random(n - 1), init_state)


def _walk(cum: np.ndarray, draws: np.ndarray, init_state: int) -> np.ndarray:
    """Chain whose step t from state i + 1 inverts ``draws[t - 1]`` on ``cum[t - 1, i]``."""
    states = np.empty(len(draws) + 1, dtype=int)
    states[0] = init_state
    for t in range(1, len(states)):
        states[t] = np.searchsorted(cum[t - 1, states[t - 1] - 1], draws[t - 1], side="right") + 1
    return states


def nonhomog_prob_table(coefs: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Per-step transition distributions from reduced logit coefficients.

    ``coefs`` is (m - 1, m + 1): intercept, indicators of lag states
    2..m, covariate slope; reference class is state 1.  Entry [t, i, c]
    of the result is P(next = c + 1 | lag = i + 1, x[t]).
    """
    coefs = np.atleast_2d(np.asarray(coefs, dtype=float))
    m = coefs.shape[0] + 1
    if coefs.shape[1] != m + 1:
        raise ValueError(f"coefficients must be (m-1, m+1); got {coefs.shape}")
    x = np.asarray(x, dtype=float)
    # one design row per (step, lag state), step-major, in mnlogit's layout
    design = _lag_design(np.tile(np.arange(1, m + 1), len(x)), np.repeat(x, m)[:, None], m)
    return _evaluate(coefs, design.T, None)[1].T.reshape(len(x), m, m)


def simulate_nonhomog_chain(
    coefs: np.ndarray,
    x: np.ndarray,
    n: int,
    init_state: int = 1,
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """Simulate a chain whose transition logits shift with a lagged covariate.

    The state at t is drawn from the logit distribution evaluated at the
    state at t-1 and the covariate at t-1.
    """
    x = np.asarray(x, dtype=float)
    if len(x) < n:
        raise ValueError(f"covariate series of length {len(x)} cannot drive {n} steps")
    if rng is None:
        rng = np.random.default_rng()
    tables = nonhomog_prob_table(coefs, x[: n - 1])  # table[t-1] drives step t
    return _walk(tables.cumsum(axis=2), rng.random(n - 1), init_state)


def _draw_part1_generator(states: int, rng: np.random.Generator) -> dict:
    m = states
    base = rng.uniform(-PART1_COEF_SCALE, PART1_COEF_SCALE, size=(m, m))
    base[np.arange(m), np.arange(m)] += PART1_PERSIST_BONUS
    slopes = rng.uniform(-PART1_SLOPE_SCALE, PART1_SLOPE_SCALE, size=m)
    coefs = _reduce_logits(base, slopes)

    raw = rng.uniform(size=(m, m))
    raw = raw / raw.sum(axis=1, keepdims=True)
    floored = np.maximum(raw, PART1_MIN_TRANS_PROB)
    transition = floored / floored.sum(axis=1, keepdims=True)
    return {"chain1_coefficients": coefs, "chain2_transition": transition}


def _reduce_logits(base: np.ndarray, slopes: np.ndarray) -> np.ndarray:
    """Reference-code full (m, m) base logits + slopes to (m-1, m+1) coefficients."""
    m = base.shape[0]
    logits = base[:, 1:] - base[:, :1]  # each lag state's logits against next state 1
    coefs = np.empty((m - 1, m + 1))
    coefs[:, 0] = logits[0]
    coefs[:, 1:m] = (logits[1:] - logits[0]).T
    coefs[:, m] = slopes[1:] - slopes[0]
    return coefs


def _draw_part2_generator(rng: np.random.Generator) -> dict:
    """Binary-logit coefficient pairs per (equation, source chain).

    Source-1 ("persistent") conditionals: strong own-state base logits
    plus a covariate slope wide enough to sweep probabilities from near
    0 to near 1.  Source-2 ("moderate") conditionals stay within roughly
    (0.3, 0.7).
    """
    def draw(base_mag, slope_mag):
        # base[i] is the logit of state 2 given lag state i+1; opposite
        # signs give self-persistent regimes
        jitter = rng.uniform(0.9, 1.1, size=3)
        sign = rng.choice([-1.0, 1.0])
        base = np.array([-base_mag * jitter[0], base_mag * jitter[1]])
        slope = sign * slope_mag * jitter[2]
        return {"base": base, "slope": slope}

    return {
        "extreme": [draw(PART2_EXTREME_BASE, PART2_EXTREME_SLOPE) for _ in range(2)],
        "moderate": [draw(PART2_MODERATE_BASE, PART2_MODERATE_SLOPE) for _ in range(2)],
    }


def _binary_prob_table(coef: dict, x: np.ndarray) -> np.ndarray:
    """(len(x), 2, 2) table of P(next | lag, x) for a binary logit pair."""
    base0, base1 = coef["base"]
    return nonhomog_prob_table([[base0, base1 - base0, coef["slope"]]], x)


def _fit_and_test(panel_cols, x, alpha, hypotheses):
    """Fit the mixture model and evaluate Wald hypotheses on equation 1.

    Returns the rejection flags and the weight estimates, or (None, None)
    when the replication fails.  Each chain's alphabet is its largest
    state, so ``Panel`` rejects a chain that never visits one of them.
    """
    sizes = tuple(int(col.max()) for col in panel_cols)
    try:
        panel = Panel(states=np.column_stack(panel_cols), alphabet_sizes=sizes)
        cov = CovariateMatrix(x.reshape(-1, 1), ["x"])
        fit = estimate_gmmc(panel, cov, x_lag=1)
        if not all(fit.converged):
            raise EstimationError("weight optimization did not converge")
        eq = fit.fit_report.equations[0]
        if not np.isfinite(eq.std_errors).all():
            raise EstimationError("standard errors unavailable")
        rejected = []
        for coord, null_value in hypotheses:
            res = wald_test(eq.estimates[coord], eq.std_errors[coord], null_value)
            rejected.append(bool(res.p_value < alpha))
    except (DataError, EstimationError, np.linalg.LinAlgError):
        return None, None
    return rejected, eq.estimates.copy()


def _part1_rep(payload) -> tuple[Optional[list[bool]], Optional[np.ndarray]]:
    seed, rep, n_obs, states, alpha, coefs1, transition2 = payload
    rng = replication_rng(seed, rep)
    x = rng.normal(X_MEAN, X_SD, size=n_obs)
    s1 = simulate_nonhomog_chain(coefs1, x, n_obs, init_state=1, rng=rng)
    s2 = simulate_homog_chain(transition2, n_obs, init_state=1, rng=rng)
    hypotheses = [(0, 0.0), (1, 1.0), (0, 1.0), (1, 0.0)]
    return _fit_and_test([s1, s2], x, alpha, hypotheses)


def _part2_rep(payload) -> tuple[Optional[list[bool]], Optional[np.ndarray]]:
    seed, rep, n_obs, alpha, lam, generator = payload
    rng = replication_rng(seed, rep)
    x = rng.normal(X_MEAN, X_SD, size=n_obs)
    extreme = [_binary_prob_table(generator["extreme"][j], x[: n_obs - 1]) for j in range(2)]
    moderate = [_binary_prob_table(generator["moderate"][j], x[: n_obs - 1]) for j in range(2)]

    s1 = np.empty(n_obs, dtype=int)
    s2 = np.empty(n_obs, dtype=int)
    s1[0] = s2[0] = 1
    draws = rng.random((n_obs - 1, 2))
    for t in range(1, n_obs):
        lag1, lag2 = s1[t - 1] - 1, s2[t - 1] - 1
        for j, (series, comp_e, comp_m) in enumerate(((s1, extreme[0], moderate[0]),
                                                      (s2, extreme[1], moderate[1]))):
            mix = lam[0] * comp_e[t - 1, lag1] + lam[1] * comp_m[t - 1, lag2]
            series[t] = 2 if draws[t - 1, j] > mix[0] else 1

    hypotheses = [(0, float(lam[0])), (1, float(lam[1])), (0, 0.0), (1, 0.0)]
    return _fit_and_test([s1, s2], x, alpha, hypotheses)


def run_part1(config: SimConfig, n_jobs: int = 1) -> SimReport:
    """Size and power of the Wald tests when the truth is weights (1, 0)."""
    if config.scenario != "part1":
        raise ValueError("config.scenario must be 'part1'")
    gen = _draw_part1_generator(config.states, study_rng(config.seed))
    payloads = [
        (
            config.seed,
            rep,
            config.n_obs,
            config.states,
            config.alpha,
            gen["chain1_coefficients"],
            gen["chain2_transition"],
        )
        for rep in range(config.n_reps)
    ]
    outcomes = _map_replications(_part1_rep, payloads, n_jobs)
    hypotheses = [
        "power: weight_11 = 0",
        "power: weight_12 = 1",
        "dimension: weight_11 = 1",
        "dimension: weight_12 = 0",
    ]
    return _aggregate(
        config,
        hypotheses,
        outcomes,
        power_idx=(0, 1),
        dimension_idx=(2, 3),
        generator={
            "chain1_coefficients": gen["chain1_coefficients"].tolist(),
            "chain2_transition": gen["chain2_transition"].tolist(),
        },
    )


def run_part2(config: SimConfig, n_jobs: int = 1) -> SimReport:
    """Recovery of assigned weights mixing persistent and moderate sources."""
    if config.scenario != "part2":
        raise ValueError("config.scenario must be 'part2'")
    gen = _draw_part2_generator(study_rng(config.seed))
    lam = np.asarray(config.lambda_true, dtype=float)
    payloads = [
        (config.seed, rep, config.n_obs, config.alpha, lam, gen)
        for rep in range(config.n_reps)
    ]
    outcomes = _map_replications(_part2_rep, payloads, n_jobs)
    hypotheses = [
        f"dimension: weight_11 = {lam[0]:g}",
        f"dimension: weight_12 = {lam[1]:g}",
        "power: weight_11 = 0",
        "power: weight_12 = 0",
    ]
    report = _aggregate(
        config,
        hypotheses,
        outcomes,
        power_idx=(2, 3),
        dimension_idx=(0, 1),
        generator={
            "extreme": [
                {"base": g["base"].tolist(), "slope": float(g["slope"])}
                for g in gen["extreme"]
            ],
            "moderate": [
                {"base": g["base"].tolist(), "slope": float(g["slope"])}
                for g in gen["moderate"]
            ],
        },
    )
    estimates = np.array([e for r, e in outcomes if r is not None])
    abs_errors = np.abs(estimates[:, 0] - lam[0])
    report.lambda_true = [float(v) for v in lam]
    report.lambda_mean = [float(v) for v in estimates.mean(axis=0)]
    report.lambda_mean_abs_error = float(abs_errors.mean())
    report.lambda_abs_errors = [float(v) for v in abs_errors]
    return report


def run_study(config: SimConfig, n_jobs: int = 1) -> SimReport:
    if config.scenario == "part1":
        return run_part1(config, n_jobs=n_jobs)
    return run_part2(config, n_jobs=n_jobs)


def _map_replications(worker, payloads, n_jobs):
    """Worker outcomes in payload order, serial or across processes."""
    if n_jobs <= 1:
        return [worker(p) for p in payloads]
    from concurrent.futures import ProcessPoolExecutor  # its imports cost 10-18 ms
    chunk = max(1, len(payloads) // (4 * n_jobs))
    with ProcessPoolExecutor(max_workers=n_jobs) as pool:
        return list(pool.map(worker, payloads, chunksize=chunk))


def _aggregate(config, hypotheses, outcomes, power_idx, dimension_idx, generator):
    flags = [r for r, _ in outcomes if r is not None]
    n_failed = config.n_reps - len(flags)
    if n_failed > MAX_FAILURE_SHARE * config.n_reps:
        raise EstimationError(
            f"{n_failed} of {config.n_reps} replications failed to fit; "
            "the study design is degenerate at this sample size"
        )
    if not flags:
        raise EstimationError("no replication produced a usable fit")
    matrix = np.asarray(flags, dtype=float)
    rates = matrix.mean(axis=0)
    return SimReport(
        scenario=config.scenario,
        states=config.states,
        n_obs=config.n_obs,
        n_reps=config.n_reps,
        seed=config.seed,
        alpha=config.alpha,
        hypotheses=hypotheses,
        rejection_rates=[float(r) for r in rates],
        dimension=float(np.mean([rates[i] for i in dimension_idx])),
        power=float(np.mean([rates[i] for i in power_idx])),
        n_failed=n_failed,
        generator=generator,
    )
