"""Chain simulators and the Monte Carlo study harness."""

import numpy as np
import pytest

from markovmix import simulation
from markovmix.data import CovariateMatrix, Panel
from markovmix.mnlogit import _mnlogit_hessian, build_design, fit_mnlogit
from markovmix.simulation import (
    SimConfig,
    _draw_part1_generator,
    _part1_rep,
    nonhomog_prob_table,
    replication_rng,
    run_part1,
    run_part2,
    run_study,
    simulate_homog_chain,
    simulate_nonhomog_chain,
    study_rng,
)

BASE_KEYS = {
    "scenario", "states", "n_obs", "n_reps", "seed", "alpha", "hypotheses",
    "rejection_rates", "dimension", "power", "n_failed", "generator",
}
LAMBDA_KEYS = {"lambda_true", "lambda_mean", "lambda_mean_abs_error", "lambda_abs_errors"}


class TestSimulateHomogChain:
    def test_identity_matrix_constant_chain(self):
        rng = np.random.default_rng(0)
        chain = simulate_homog_chain(np.eye(2), 50, init_state=2, rng=rng)
        assert (chain == 2).all()

    def test_absorbing_second_state(self):
        rng = np.random.default_rng(1)
        chain = simulate_homog_chain(np.array([[0.0, 1.0], [0.0, 1.0]]), 10, rng=rng)
        assert chain.tolist() == [1] + [2] * 9

    def test_lln_recovers_matrix(self):
        rng = np.random.default_rng(2)
        p = np.array([[0.7, 0.3], [0.2, 0.8]])
        chain = simulate_homog_chain(p, 100_000, rng=rng)
        counts = np.zeros((2, 2))
        np.add.at(counts, (chain[:-1] - 1, chain[1:] - 1), 1)
        empirical = counts / counts.sum(axis=1, keepdims=True)
        assert np.max(np.abs(empirical - p)) < 0.02


class TestSimulateNonhomogChain:
    def test_zero_coefficients_iid_uniform(self):
        rng = np.random.default_rng(3)
        n = 30_000
        coefs = np.zeros((1, 3))
        x = rng.normal(size=n)
        chain = simulate_nonhomog_chain(coefs, x, n, rng=rng)
        freq = np.bincount(chain, minlength=3)[1:] / n
        assert np.abs(freq - 0.5).max() < 0.01

    def test_persistent_coefficients_long_runs(self):
        rng = np.random.default_rng(4)
        n = 20_000
        # strong own-state effects: logit of state 2 low at lag 1, high at lag 2
        coefs = np.array([[-3.0, 6.0, 0.0]])
        x = rng.normal(size=n)
        chain = simulate_nonhomog_chain(coefs, x, n, rng=rng)
        stay = np.mean(chain[1:] == chain[:-1])
        assert stay > 0.9

    def test_conditional_frequencies_match_generator(self):
        rng = np.random.default_rng(5)
        n = 100_000
        coefs = np.array([[-0.4, 0.9, 0.35]])
        x = rng.normal(0.0, 1.0, size=n)
        chain = simulate_nonhomog_chain(coefs, x, n, rng=rng)
        tables = nonhomog_prob_table(coefs, x[: n - 1])
        # bucket by lag state and covariate sign, compare frequencies
        lag = chain[:-1]
        nxt = chain[1:]
        for state in (1, 2):
            for sign in (-1, 1):
                mask = (lag == state) & (np.sign(x[: n - 1]) == sign)
                expected = tables[mask, state - 1, 1].mean()
                observed = (nxt[mask] == 2).mean()
                assert abs(observed - expected) < 0.02

    def test_covariate_too_short_rejected(self):
        with pytest.raises(ValueError, match="cannot drive"):
            simulate_nonhomog_chain(np.zeros((1, 3)), np.zeros(3), 10)


class TestWalkIsPinned:
    """The first 60 states for fixed seeds; they move if the walk's draw
    order or indexing ever changes."""

    def test_homog_two_states(self):
        p = np.array([[0.7, 0.3], [0.4, 0.6]])
        chain = simulate_homog_chain(p, 60, init_state=1, rng=np.random.default_rng(101))
        assert chain.tolist() == [
            1, 2, 1, 2, 2, 1, 2, 2, 1, 2, 1, 2, 2, 2, 1, 2, 2, 1, 1, 1,
            1, 1, 1, 1, 1, 2, 2, 2, 2, 2, 2, 1, 1, 2, 2, 1, 1, 1, 2, 2,
            1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 2, 2, 2, 1, 1, 2, 1, 2,
        ]

    def test_homog_three_states(self):
        p = np.array([[0.5, 0.3, 0.2], [0.1, 0.6, 0.3], [0.25, 0.25, 0.5]])
        chain = simulate_homog_chain(p, 60, init_state=2, rng=np.random.default_rng(102))
        assert chain.tolist() == [
            2, 2, 2, 3, 2, 2, 2, 3, 3, 3, 1, 1, 1, 2, 2, 3, 3, 3, 1, 2,
            3, 3, 1, 2, 1, 2, 2, 2, 2, 2, 2, 2, 3, 3, 2, 1, 1, 3, 2, 2,
            2, 2, 2, 1, 1, 1, 1, 2, 3, 2, 2, 2, 2, 2, 3, 3, 2, 3, 2, 3,
        ]

    def test_nonhomog_two_states(self):
        x = np.random.default_rng(7).normal(0.0, 2.0, size=60)
        coefs = np.array([[-0.4, 0.9, 0.35]])
        chain = simulate_nonhomog_chain(coefs, x, 60, init_state=1, rng=np.random.default_rng(103))
        assert chain.tolist() == [
            1, 1, 1, 1, 2, 2, 1, 1, 2, 2, 1, 1, 2, 2, 2, 1, 1, 1, 1, 2,
            2, 1, 1, 2, 2, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 2, 1, 1, 2, 1,
            2, 2, 2, 1, 1, 1, 2, 2, 2, 1, 1, 1, 2, 2, 2, 1, 2, 1, 2, 1,
        ]

    def test_nonhomog_three_states(self):
        x = np.random.default_rng(7).normal(0.0, 2.0, size=60)
        coefs = np.array([[0.2, 0.5, -0.3, 0.4], [-0.1, -0.2, 0.8, -0.25]])
        chain = simulate_nonhomog_chain(coefs, x, 60, init_state=3, rng=np.random.default_rng(104))
        assert chain.tolist() == [
            3, 3, 3, 1, 1, 2, 3, 3, 2, 2, 3, 1, 2, 2, 3, 1, 2, 2, 1, 3,
            3, 3, 2, 3, 1, 3, 3, 3, 3, 3, 3, 3, 3, 3, 2, 2, 2, 2, 2, 1,
            1, 1, 2, 1, 3, 2, 2, 2, 2, 2, 2, 2, 3, 3, 3, 2, 2, 2, 1, 2,
        ]

    def test_part2_study(self):
        # Part II walks its two mixed chains itself, from _binary_prob_table
        report = run_part2(SimConfig(n_obs=120, n_reps=6, scenario="part2",
                                     lambda_true=(0.8, 0.2), seed=3))
        assert report.rejection_rates == [0.0, 0.0, 0.0, 0.0]
        assert report.lambda_abs_errors == [
            0.14834772851192068, 0.7267673387681866, 0.7739501552754531,
            0.19999999999999996, 0.41416772344960645, 0.6025001174854809,
        ]


class TestGeneratorMatchesEstimator:
    def test_fit_recovers_generating_coefficients(self):
        """The simulator and mnlogit share one logit convention: fitting
        build_design on a simulated chain returns the generating
        coefficients within 4 standard errors each.  A covariate lag of 0
        or swapped lag indicators miss by 12 or more."""
        rng = np.random.default_rng(8)
        n = 20_000
        coefs = np.array([[0.4, 0.9, -0.3, 0.25], [-0.2, -0.5, 1.1, -0.15]])
        x = rng.normal(2.0, 5.0, size=n)
        chain = simulate_nonhomog_chain(coefs, x, n, init_state=1, rng=rng)
        panel = Panel(states=chain[:, None], alphabet_sizes=(3,))
        design, response, spec = build_design(panel, 0, 0, CovariateMatrix(x[:, None], ["x"]))
        fit = fit_mnlogit(design, response, n_states=3, spec=spec)
        std_errors = np.sqrt(np.diag(np.linalg.inv(-_mnlogit_hessian(fit.coefficients, design))))
        z = (fit.coefficients - coefs).ravel() / std_errors
        assert np.abs(z).max() < 4.0


class TestSimConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SimConfig(n_obs=5, n_reps=10)
        with pytest.raises(ValueError):
            SimConfig(n_obs=100, scenario="part3")
        with pytest.raises(ValueError):
            SimConfig(n_obs=100, scenario="part2", states=3, lambda_true=(0.5, 0.5))
        with pytest.raises(ValueError):
            SimConfig(n_obs=100, scenario="part2", lambda_true=(0.9, 0.2))
        with pytest.raises(ValueError):
            SimConfig(n_obs=100, alpha=1.5)


class TestDeterminism:
    def test_rng_streams_are_stable(self):
        a = study_rng(5).normal(size=3)
        b = study_rng(5).normal(size=3)
        assert np.array_equal(a, b)
        r1 = replication_rng(5, 10).normal(size=3)
        r2 = replication_rng(5, 10).normal(size=3)
        assert np.array_equal(r1, r2)
        assert not np.array_equal(r1, replication_rng(5, 11).normal(size=3))

    def test_same_seed_identical_reports(self):
        cfg = SimConfig(n_obs=60, n_reps=8, states=2, scenario="part1", seed=21)
        a = run_part1(cfg)
        b = run_part1(cfg)
        assert a.to_json() == b.to_json()

    def test_serial_equals_parallel_byte_for_byte(self):
        cfg = SimConfig(n_obs=60, n_reps=8, states=2, scenario="part1", seed=21)
        serial = run_part1(cfg, n_jobs=1)
        parallel = run_part1(cfg, n_jobs=2)
        assert serial.to_json() == parallel.to_json()
        assert serial.to_csv_rows() == parallel.to_csv_rows()

    def test_part2_serial_equals_parallel(self):
        cfg = SimConfig(
            n_obs=120, n_reps=6, states=2, scenario="part2",
            lambda_true=(0.8, 0.2), seed=3,
        )
        serial = run_part2(cfg, n_jobs=1)
        parallel = run_part2(cfg, n_jobs=2)
        assert serial.to_json() == parallel.to_json()


class TestRunPart1:
    def test_single_rep_rates_are_zero_or_one(self):
        cfg = SimConfig(n_obs=80, n_reps=1, states=2, scenario="part1", seed=13)
        report = run_part1(cfg)
        assert set(report.rejection_rates) <= {0.0, 1.0}

    def test_report_fields(self):
        cfg = SimConfig(n_obs=60, n_reps=5, states=2, scenario="part1", seed=21)
        report = run_part1(cfg)
        assert len(report.hypotheses) == 4
        assert report.n_failed + 0 <= 5
        assert "chain1_coefficients" in report.generator
        assert "chain2_transition" in report.generator
        doc = report.to_dict()
        assert doc["scenario"] == "part1" and doc["n_obs"] == 60

    def test_chain_stuck_in_one_state_is_a_counted_failure(self):
        # seed 5368, replication 1 at n=100: chain 2 never leaves state 1
        gen = _draw_part1_generator(2, study_rng(5368))
        payload = (5368, 1, 100, 2, 0.05, gen["chain1_coefficients"], gen["chain2_transition"])
        assert _part1_rep(payload) == (None, None)

    def test_linear_algebra_error_is_a_counted_failure(self, monkeypatch):
        estimate_gmmc = simulation.estimate_gmmc

        def failing_once(*args, **kwargs):
            if not hasattr(failing_once, "raised"):
                failing_once.raised = True
                raise np.linalg.LinAlgError("Singular matrix")
            return estimate_gmmc(*args, **kwargs)

        monkeypatch.setattr(simulation, "estimate_gmmc", failing_once)
        cfg = SimConfig(n_obs=100, n_reps=25, states=2, scenario="part1", seed=7)
        assert run_part1(cfg).n_failed == 1

    def test_report_has_the_base_keys_only(self):
        cfg = SimConfig(n_obs=60, n_reps=3, states=2, scenario="part1", seed=2)
        assert set(run_part1(cfg).to_dict()) == BASE_KEYS

    def test_scenario_mismatch_rejected(self):
        cfg = SimConfig(n_obs=60, n_reps=5, states=2, scenario="part1", seed=21)
        with pytest.raises(ValueError):
            run_part2(cfg)

    def test_run_study_dispatch(self):
        cfg = SimConfig(n_obs=60, n_reps=3, states=2, scenario="part1", seed=2)
        assert run_study(cfg).scenario == "part1"


class TestRunPart2:
    def test_degenerate_weights_reduce_to_part1_like(self):
        cfg = SimConfig(
            n_obs=1500, n_reps=6, states=2, scenario="part2",
            lambda_true=(1.0, 0.0), seed=5,
        )
        report = run_part2(cfg)
        assert report.lambda_mean[0] > 0.9

    def test_estimates_recorded(self):
        cfg = SimConfig(
            n_obs=150, n_reps=5, states=2, scenario="part2",
            lambda_true=(0.8, 0.2), seed=5,
        )
        report = run_part2(cfg)
        assert report.lambda_true == [0.8, 0.2]
        assert len(report.lambda_mean) == 2
        assert report.lambda_mean_abs_error >= 0.0
        assert set(report.to_dict()) == BASE_KEYS | LAMBDA_KEYS

    def test_generator_ranges(self):
        # source-1 conditionals sweep a wide range, source-2 stay moderate
        from markovmix.simulation import _binary_prob_table, _draw_part2_generator

        gen = _draw_part2_generator(study_rng(7))
        x = np.random.default_rng(0).normal(2.0, 5.0, size=20_000)
        extreme = np.concatenate(
            [_binary_prob_table(g, x)[:, :, 1].ravel() for g in gen["extreme"]]
        )
        moderate = np.concatenate(
            [_binary_prob_table(g, x)[:, :, 1].ravel() for g in gen["moderate"]]
        )
        assert extreme.min() < 0.05 and extreme.max() > 0.95
        assert 0.15 < moderate.min() and moderate.max() < 0.85


class TestPowerOrdering:
    @pytest.mark.slow
    def test_power_higher_at_higher_weight(self):
        # power of the weight_11 = 0 test grows with the true weight
        powers = []
        for lam1 in (0.2, 0.8):
            cfg = SimConfig(
                n_obs=1000, n_reps=60, states=2, scenario="part2",
                lambda_true=(lam1, 1.0 - lam1), seed=7,
            )
            report = run_part2(cfg, n_jobs=2)
            powers.append(report.rejection_rates[2])
        assert powers[0] <= powers[1]
