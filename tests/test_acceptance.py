"""Acceptance gate: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line
per criterion.  Criterion 7 needs user-supplied market data (see its
docstring) and is skipped when the file is absent.
"""

import math
import os
import time

import numpy as np
import pytest

from markovmix.data import (
    CovariateMatrix,
    Panel,
    discretize_quantiles,
    encode_sequences,
    log_returns,
    transition_matrix_grid,
)
from markovmix.gmmc import build_prob_tensor, estimate_gmmc, gmmc_hessian, gmmc_loglik
from markovmix.inference import chi2_1_sf
from markovmix.mnlogit import mnlogit_loglik, mnlogit_score
from markovmix.mtd import mtd_loglik, realized_prob_tensor
from markovmix.optim import numeric_gradient, numeric_hessian
from markovmix.probit import ProbitModel, probit_loglik
from markovmix.simulation import (
    SimConfig,
    run_part1,
    run_part2,
    simulate_homog_chain,
    simulate_nonhomog_chain,
)
from markovmix.inference import FitReport

N_JOBS = min(2, os.cpu_count() or 1)


def _report(criterion: str, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: PASS ({detail})")


def _random_instance(rng):
    """Small random panel + covariate with every state visited."""
    n = int(rng.integers(8, 11))
    m = (int(rng.choice([2, 3])), int(rng.choice([2, 3])))
    while True:
        cols = [rng.integers(1, m[j] + 1, size=n) for j in range(2)]
        # every state must occur within both the response rows and the lag
        # rows, otherwise tiny designs go rank deficient
        if all(
            len(np.unique(c[1:])) == m[j] and len(np.unique(c[:-1])) == m[j]
            for j, c in enumerate(cols)
        ):
            break
    panel = Panel(np.column_stack(cols), m)
    cov = CovariateMatrix(rng.normal(size=n), ["x"])
    return panel, cov


def _brute_mixture_loglik(panel, weights, transmats, equation):
    """Per-step product oracle with explicit scalar loops."""
    product = 1.0
    total = 0.0
    for t in range(1, panel.n_obs):
        prob = 0.0
        for k in range(panel.n_chains):
            i_prev = int(panel.states[t - 1, k])
            i_now = int(panel.states[t, equation])
            prob += float(weights[k]) * float(transmats[equation][k].probs[i_prev - 1, i_now - 1])
        product *= prob
        total += math.log(prob)
    assert math.exp(total) == pytest.approx(product, rel=1e-9)
    return total


def _brute_probit_loglik(panel, transmats, etas, equation):
    from markovmix.inference import norm_cdf

    total = 0.0
    m = transmats[equation][0].probs.shape[1]
    for t in range(1, panel.n_obs):
        weights = []
        for c in range(1, m + 1):
            arg = float(etas[0])
            for k in range(panel.n_chains):
                lag = int(panel.states[t - 1, k])
                arg += float(etas[k + 1]) * float(transmats[equation][k].probs[lag - 1, c - 1])
            weights.append(float(norm_cdf(arg)))
        target = int(panel.states[t, equation])
        total += math.log(weights[target - 1] / sum(weights))
    return total


class TestCriterion1OracleEquivalence:
    def test_logliks_match_brute_force(self):
        start = time.time()
        rng = np.random.default_rng(1001)
        for _ in range(10):
            panel, cov = _random_instance(rng)
            transmats = transition_matrix_grid(panel)
            s = panel.n_chains

            # mtd likelihood at random simplex weights
            weights = np.vstack([rng.dirichlet(np.ones(s)) for _ in range(s)])
            lib_mtd = mtd_loglik(panel, weights, transmats)
            for j in range(s):
                oracle = _brute_mixture_loglik(panel, weights[j], transmats, j)
                assert lib_mtd[j] == pytest.approx(oracle, rel=1e-10)

            # gmmc likelihood on its fitted probability tensor
            tensors, _ = build_prob_tensor(panel, cov, x_lag=1)
            for j in range(s):
                lam = rng.dirichlet(np.ones(s))
                lib = gmmc_loglik(lam, tensors[j])
                oracle = sum(
                    math.log(sum(float(lam[k]) * float(tensors[j][t, k]) for k in range(s)))
                    for t in range(tensors[j].shape[0])
                )
                assert lib == pytest.approx(oracle, rel=1e-10)

            # probit likelihood at random etas
            etas = np.vstack([rng.normal(size=s + 1) for _ in range(s)])
            model = ProbitModel(
                etas=etas,
                transmats=transmats,
                logliks=np.zeros(s),
                fit_report=FitReport([]),
            )
            lib_probit = probit_loglik(panel, model)
            for j in range(s):
                oracle = _brute_probit_loglik(panel, transmats, etas[j], j)
                assert lib_probit[j] == pytest.approx(oracle, rel=1e-10)
        elapsed = time.time() - start
        assert elapsed < 1.0
        _report("criterion 1", f"3 likelihoods x 10 instances, 1e-10 relative, {elapsed:.2f}s")


class TestCriterion2DerivativeChecks:
    def test_scores_and_hessians_match_finite_differences(self):
        start = time.time()
        rng = np.random.default_rng(2002)

        # mnlogit analytic score at 20 random points
        for _ in range(20):
            n = 60
            design = np.column_stack([np.ones(n), rng.normal(size=n), rng.normal(size=n)])
            m = int(rng.choice([2, 3]))
            response = rng.integers(1, m + 1, size=n)
            while len(np.unique(response)) < m:
                response = rng.integers(1, m + 1, size=n)
            point = rng.normal(size=(m - 1, 3)) * 0.5
            analytic = mnlogit_score(point, design, response)
            numeric = numeric_gradient(
                lambda v: mnlogit_loglik(v.reshape(m - 1, 3), design, response),
                point.ravel(),
                h=1e-6,
            )
            rel = np.max(np.abs(analytic - numeric)) / max(1.0, np.max(np.abs(numeric)))
            assert rel < 1e-5

        # gmmc hessian at 20 random feasible points
        for _ in range(20):
            rows = int(rng.integers(10, 40))
            q = rng.uniform(0.05, 0.95, size=(rows, 2))
            lam = rng.dirichlet(np.ones(2)) * 0.9 + 0.05
            analytic = gmmc_hessian(lam, q)
            numeric = numeric_hessian(lambda w: gmmc_loglik(w, q), lam, h=1e-4)
            rel = np.max(np.abs(analytic - numeric)) / max(1.0, np.max(np.abs(numeric)))
            assert rel < 1e-5

        # mtd hessian at 20 random feasible points
        for _ in range(20):
            panel, _ = _random_instance(rng)
            transmats = transition_matrix_grid(panel)
            q = realized_prob_tensor(panel, transmats, 0)
            lam = rng.dirichlet(np.ones(2)) * 0.9 + 0.05
            from markovmix._mixture import mixture_hessian, mixture_loglik

            analytic = mixture_hessian(lam, q)
            numeric = numeric_hessian(lambda w: mixture_loglik(w, q), lam, h=1e-4)
            rel = np.max(np.abs(analytic - numeric)) / max(1.0, np.max(np.abs(numeric)))
            assert rel < 1e-5

        elapsed = time.time() - start
        assert elapsed < 10.0
        _report("criterion 2", f"score + 2 hessians x 20 points, 1e-5 relative, {elapsed:.2f}s")


class TestCriterion3ConstraintCompliance:
    def test_100_random_fits_stay_on_simplex(self):
        start = time.time()
        rng = np.random.default_rng(3003)
        fitted = 0
        attempts = 0
        while fitted < 100 and attempts < 400:
            attempts += 1
            n = int(rng.integers(80, 201))
            m = int(rng.choice([2, 3]))
            x = rng.normal(2.0, 5.0, size=n)
            kind = rng.integers(0, 3)
            if kind == 0:
                cols = [rng.integers(1, m + 1, size=n) for _ in range(2)]
            elif kind == 1:
                p = rng.dirichlet(np.ones(m) * 2.0, size=m)
                cols = [
                    simulate_homog_chain(p, n, rng=rng),
                    rng.integers(1, m + 1, size=n),
                ]
            else:
                coefs = rng.uniform(-1, 1, size=(m - 1, m + 1))
                cols = [
                    simulate_nonhomog_chain(coefs, x, n, rng=rng),
                    rng.integers(1, m + 1, size=n),
                ]
            if any(len(np.unique(c)) < m for c in cols):
                continue
            panel = Panel(np.column_stack(cols), (m, m))
            cov = CovariateMatrix(x.reshape(-1, 1), ["x"])
            fit = estimate_gmmc(panel, cov, x_lag=1)
            for j in range(2):
                assert abs(fit.weights[j].sum() - 1.0) <= 1e-6
                assert fit.weights[j].min() >= -1e-8
            fitted += 1
        assert fitted == 100
        elapsed = time.time() - start
        assert elapsed < 120.0
        _report("criterion 3", f"100 fits, sum-to-1 within 1e-6, min >= -1e-8, {elapsed:.1f}s")


@pytest.mark.acceptance
class TestCriterion4PartITwoStates:
    def test_smoke_variant_200_reps(self):
        start = time.time()
        cfg = SimConfig(n_obs=100, n_reps=200, states=2, scenario="part1", seed=7)
        report = run_part1(cfg, n_jobs=N_JOBS)
        elapsed = time.time() - start
        assert abs(report.dimension - 0.057) <= 0.04
        assert elapsed < 60.0
        _report(
            "criterion 4 (smoke)",
            f"dimension {report.dimension:.3f} within 0.057 +/- 0.04, {elapsed:.1f}s",
        )

    @pytest.mark.slow
    def test_full_1000_reps(self):
        cfg = SimConfig(n_obs=100, n_reps=1000, states=2, scenario="part1", seed=7)
        report = run_part1(cfg, n_jobs=N_JOBS)
        assert abs(report.dimension - 0.057) <= 0.02
        _report(
            "criterion 4",
            f"dimension {report.dimension:.4f} within 0.057 +/- 0.02 "
            f"(n=100, 1000 reps, seed 7, {report.n_failed} failed)",
        )


@pytest.mark.acceptance
class TestCriterion5PartIThreeStates:
    @pytest.mark.slow
    def test_power_and_dimension_at_n500(self):
        cfg = SimConfig(n_obs=500, n_reps=1000, states=3, scenario="part1", seed=7)
        report = run_part1(cfg, n_jobs=N_JOBS)
        assert report.power >= 0.97
        assert report.dimension <= 0.03
        _report(
            "criterion 5",
            f"power {report.power:.3f} >= 0.97, dimension {report.dimension:.4f} <= 0.03",
        )


@pytest.mark.acceptance
class TestCriterion6PartIIRecovery:
    @pytest.mark.slow
    def test_mean_absolute_weight_error(self):
        cfg = SimConfig(
            n_obs=5000, n_reps=200, states=2, scenario="part2",
            lambda_true=(0.8, 0.2), seed=7,
        )
        report = run_part2(cfg, n_jobs=N_JOBS)
        assert report.lambda_mean_abs_error <= 0.1
        # consistency companion at its verified level for this generator:
        # the per-replication error is under 0.1 in ~89% of replications
        share = np.mean(np.asarray(report.lambda_abs_errors) <= 0.1)
        assert share >= 0.85
        _report(
            "criterion 6",
            f"mean |weight error| {report.lambda_mean_abs_error:.4f} <= 0.1, "
            f"within 0.1 in {share:.0%} of reps "
            f"(mean estimate {np.round(report.lambda_mean, 3).tolist()})",
        )


class TestCriterion7EmpiricalReproduction:
    """Reproduction of the reference stock-index fit.

    Supply a CSV via the MARKOVMIX_SP500_DATA environment variable with
    header ``sp500,djia,spread``: daily adjusted close prices of the two
    indexes and the 10-year-minus-3-month Treasury spread, aligned by
    day, 2011-11-11 through 2021-09-01 (2582 price rows giving 2581
    return observations).  The test discretizes the two return series
    into terciles (quartile cut-points), aligns the spread, fits the
    covariate mixture with lag-1 spread, and checks equation 1 against
    the published estimates.
    """

    DATA_ENV = "MARKOVMIX_SP500_DATA"

    @pytest.mark.skipif(
        not os.path.exists(os.environ.get("MARKOVMIX_SP500_DATA", "")),
        reason="market data CSV not supplied (set MARKOVMIX_SP500_DATA)",
    )
    def test_equation1_weights_and_loglik(self):
        import csv as _csv

        path = os.environ[self.DATA_ENV]
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(_csv.DictReader(fh))
        sp500 = np.array([float(r["sp500"]) for r in rows])
        djia = np.array([float(r["djia"]) for r in rows])
        spread = np.array([float(r["spread"]) for r in rows])

        r1 = log_returns(sp500)
        r2 = log_returns(djia)
        assert len(r1) == 2581, f"expected 2581 return observations, got {len(r1)}"
        s1 = discretize_quantiles(r1)
        s2 = discretize_quantiles(r2)
        panel = encode_sequences([s1.tolist(), s2.tolist()])
        cov = CovariateMatrix(spread[1:].reshape(-1, 1), ["spread"])
        fit = estimate_gmmc(panel, cov, initial=[1.0, 1.0], x_lag=1)

        weights = fit.weights[0]
        assert abs(weights[0] - 0.685660) <= 0.02
        assert abs(weights[1] - 0.314340) <= 0.02
        assert abs(fit.logliks[0] - (-2636.355)) <= 2.0
        _report(
            "criterion 7",
            f"equation-1 weights {np.round(weights, 4).tolist()}, "
            f"loglik {fit.logliks[0]:.3f}",
        )


class TestCriterion8WaldArithmetic:
    def test_published_row(self):
        statistic = (0.314340 / 0.171241) ** 2
        p = float(chi2_1_sf(statistic))
        assert abs(p - 0.066) <= 0.001
        _report("criterion 8", f"statistic {statistic:.3f}, p {p:.4f} = 0.066 +/- 0.001")


class TestCriterion9Determinism:
    def test_repeat_and_parallel_byte_identical(self):
        cfg = SimConfig(n_obs=80, n_reps=10, states=2, scenario="part1", seed=99)
        first = run_part1(cfg, n_jobs=1)
        second = run_part1(cfg, n_jobs=1)
        parallel = run_part1(cfg, n_jobs=2)
        assert first.to_json() == second.to_json() == parallel.to_json()
        assert first.to_csv_rows() == parallel.to_csv_rows()

        cfg2 = SimConfig(
            n_obs=100, n_reps=6, states=2, scenario="part2",
            lambda_true=(0.8, 0.2), seed=99,
        )
        a = run_part2(cfg2, n_jobs=1)
        b = run_part2(cfg2, n_jobs=2)
        assert a.to_json() == b.to_json()
        _report("criterion 9", "serial and parallel runs byte-identical")
