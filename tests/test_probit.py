"""Probit-link mixture: probabilities, likelihood, estimation."""

import math
import re

import numpy as np
import pytest
import scipy.optimize

from markovmix import probit
from markovmix._mixture import _hessian_std_errors
from markovmix.data import Panel, TransitionMatrix, encode_sequences, transition_matrix_grid
from markovmix.exceptions import DataError
from markovmix.inference import norm_cdf
from markovmix.optim import (
    GRAD_TOL,
    MAX_INNER_ITER,
    maximize_unconstrained,
    numeric_gradient,
    numeric_hessian,
)
from markovmix.probit import (
    _equation_loglik,
    _equation_score,
    _log_probs,
    _stack_plugin_probs,
    estimate_mtd_probit,
    probit_distribution,
    probit_loglik,
    probit_prob,
)
from markovmix.simulation import simulate_homog_chain


def _grid(mats):
    return [
        [TransitionMatrix(np.asarray(m, dtype=float), k, j) for k, m in enumerate(row)]
        for j, row in enumerate(mats)
    ]


def _simulate_mtd(rng, weights, rows, n):
    """MTD panel: chain j takes a source chain k with probability
    weights[j, k], then its next state from rows[j, k] at k's lagged state."""
    s, m = weights.shape[0], rows.shape[-1]
    sources = np.column_stack([rng.choice(s, size=n, p=weights[j]) for j in range(s)])
    cum_rows = np.cumsum(rows, axis=-1)
    draws = rng.random((n, s))
    states = np.zeros((n, s), dtype=int)
    for t in range(1, n):
        for j in range(s):
            row = cum_rows[j, sources[t, j], states[t - 1, sources[t, j]]]
            states[t, j] = min(np.searchsorted(row, draws[t, j]), m - 1)
    return Panel(states + 1, (m,) * s)


def _brute_probit_prob(transmats, etas, equation, lagged, target):
    """Direct evaluation of the normalized normal-CDF mixture."""
    m = transmats[equation][0].probs.shape[1]
    def arg(c):
        val = etas[0]
        for k, lag in enumerate(lagged):
            val += etas[k + 1] * transmats[equation][k].probs[lag - 1, c - 1]
        return val
    denom = sum(norm_cdf(arg(c)) for c in range(1, m + 1))
    return norm_cdf(arg(target)) / denom


def _assert_not_below_scipy_oracle(panel, fit):
    """Each equation's log-likelihood is not below scipy's BFGS optimum."""
    for j in range(panel.n_chains):
        patterns = _stack_plugin_probs(panel, fit.transmats, j)
        oracle = scipy.optimize.minimize(
            lambda theta: -_equation_loglik(theta, *patterns),
            np.ones(panel.n_chains + 1),
            jac=lambda theta: -_equation_score(theta, *patterns),
            method="BFGS",
            options={"gtol": 1e-8, "maxiter": 2000},
        )
        assert fit.logliks[j] >= -oracle.fun - 1e-6 * abs(oracle.fun)


class TestProbitProb:
    def setup_method(self):
        a = [[0.9, 0.1], [0.2, 0.8]]
        self.transmats = _grid([[a, a], [a, a]])

    def test_zero_etas_uniform(self):
        dist = probit_distribution(self.transmats, np.zeros(3), 0, (1, 2))
        assert np.allclose(dist, 0.5)

    def test_large_intercept_saturates_to_uniform(self):
        dist = probit_distribution(self.transmats, np.array([30.0, 0.0, 0.0]), 0, (1, 2))
        assert np.allclose(dist, 0.5, atol=1e-10)

    def test_reference_value(self):
        # m=2, one active source with row (0.9, 0.1) and eta = (0, 1, 0):
        # Phi(0.9) / (Phi(0.9) + Phi(0.1))
        dist = probit_distribution(self.transmats, np.array([0.0, 1.0, 0.0]), 0, (1, 1))
        expected = norm_cdf(0.9) / (norm_cdf(0.9) + norm_cdf(0.1))
        assert dist[0] == pytest.approx(expected, abs=1e-12)
        assert dist[0] == pytest.approx(0.6018, abs=2e-4)

    def test_probit_prob_targets_one_state(self):
        from markovmix.inference import FitReport
        from markovmix.probit import ProbitModel

        model = ProbitModel(
            etas=np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
            transmats=self.transmats,
            logliks=np.zeros(2),
            fit_report=FitReport([]),
        )
        full = probit_distribution(self.transmats, model.etas[0], 0, (1, 1))
        assert probit_prob(model, 0, (1, 1), 1) == pytest.approx(full[0], abs=1e-15)
        assert probit_prob(model, 0, (1, 1), 2) == pytest.approx(full[1], abs=1e-15)
        # a target 0 must not read index -1, P(state m)
        for target in (0, 3):
            with pytest.raises(DataError, match=re.escape(f"target state {target} outside 1..2")):
                probit_prob(model, 0, (1, 1), target)

    @pytest.mark.parametrize("lagged, message", [
        ((0, 1), "chain 0 lag state 0 outside 1..2"),
        ((1, 3), "chain 1 lag state 3 outside 1..2"),
    ], ids=["lag-0", "lag-m+1"])
    def test_lag_state_out_of_range(self, lagged, message):
        with pytest.raises(DataError, match=re.escape(message)):
            probit_distribution(self.transmats, np.zeros(3), 0, lagged)

    def test_non_integer_lag_state(self):
        with pytest.raises(DataError, match=re.escape("chain 0 lag state 1.5 is not an integer")):
            probit_distribution(self.transmats, np.zeros(3), 0, (1.5, 1))

    @pytest.mark.parametrize("lagged", [(1,), (1, 2, 2)])
    def test_wrong_number_of_lag_states(self, lagged):
        # zip alone would drop the extra state or ignore the missing chain
        with pytest.raises(ValueError, match=f"need 2 lagged states, got {len(lagged)}"):
            probit_distribution(self.transmats, np.zeros(3), 0, lagged)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(4)
        etas = rng.normal(size=3)
        for lagged in [(1, 1), (1, 2), (2, 1), (2, 2)]:
            for target in (1, 2):
                a = probit_distribution(self.transmats, etas, 0, lagged)[target - 1]
                b = _brute_probit_prob(self.transmats, etas, 0, lagged, target)
                assert a == pytest.approx(b, rel=1e-12)

    def test_cdf_underflow_stays_normalized(self):
        # every argument is below -38, where Phi underflows to 0; the
        # distribution must still be the likelihood's own row
        etas = np.array([-45.0, 1.0, 0.5])
        dist = probit_distribution(self.transmats, etas, 0, (1, 2))
        plugin = np.stack([self.transmats[0][0].probs[0], self.transmats[0][1].probs[1]])
        assert np.all(np.isfinite(dist))
        assert dist.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.array_equal(dist, np.exp(_log_probs(etas, plugin[None])[1][0]))

    def test_distribution_sums_to_one(self):
        rng = np.random.default_rng(5)
        m3 = rng.dirichlet(np.ones(3), size=3)
        transmats = _grid([[m3, m3], [m3, m3]])
        etas = rng.normal(size=3) * 2
        dist = probit_distribution(transmats, etas, 0, (2, 3))
        assert dist.sum() == pytest.approx(1.0, abs=1e-10)
        assert (dist > 0).all()


class TestProbitLoglik:
    def test_zero_etas_give_uniform_loglik(self):
        rng = np.random.default_rng(0)
        panel = encode_sequences([rng.integers(1, 3, 30).tolist(),
                                  rng.integers(1, 3, 30).tolist()])
        model = estimate_mtd_probit(panel, initial=np.ones(3))
        model.etas[:] = 0.0
        ll = probit_loglik(panel, model)
        assert np.allclose(ll, (panel.n_obs - 1) * math.log(0.5), atol=1e-10)

    def test_pattern_count_form_equals_per_step_sum(self):
        rng = np.random.default_rng(1)
        panel = encode_sequences([rng.integers(1, 3, 10).tolist(),
                                  rng.integers(1, 3, 10).tolist()])
        transmats = transition_matrix_grid(panel)
        etas = np.array([0.3, 1.2, -0.4])

        per_step = 0.0
        pattern_counts: dict = {}
        for t in range(1, panel.n_obs):
            lagged = tuple(panel.states[t - 1])
            target = panel.states[t, 0]
            per_step += math.log(
                _brute_probit_prob(transmats, etas, 0, lagged, target)
            )
            pattern_counts[(lagged, target)] = pattern_counts.get((lagged, target), 0) + 1
        by_pattern = sum(
            count * math.log(_brute_probit_prob(transmats, etas, 0, lagged, target))
            for (lagged, target), count in pattern_counts.items()
        )
        assert per_step == pytest.approx(by_pattern, rel=1e-12)
        patterns = _stack_plugin_probs(panel, transmats, 0)
        assert patterns[2].sum() == panel.n_obs - 1
        assert _equation_loglik(etas, *patterns) == pytest.approx(per_step, rel=1e-12)

    @pytest.mark.parametrize(
        "etas",
        [[0.3, 1.2, -0.4, 0.8], [-45.0, 1.0, 0.5, 2.0]],
        ids=["intercept", "cdf-underflow"],
    )
    def test_score_matches_numeric_gradient(self, etas):
        # the last point puts every argument below -38, where Phi underflows
        rng = np.random.default_rng(6)
        panel = encode_sequences([rng.integers(1, 4, 300).tolist() for _ in range(3)])
        patterns = _stack_plugin_probs(panel, transition_matrix_grid(panel), 1)
        etas = np.array(etas)
        score = _equation_score(etas, *patterns)
        oracle = numeric_gradient(lambda theta: _equation_loglik(theta, *patterns), etas)
        assert np.all(np.isfinite(score))
        assert np.allclose(score, oracle, rtol=1e-6, atol=1e-5)

    def test_dependence_beats_uniform(self):
        rng = np.random.default_rng(2)
        chain = simulate_homog_chain(np.array([[0.9, 0.1], [0.15, 0.85]]), 2000, rng=rng)
        other = simulate_homog_chain(np.array([[0.5, 0.5], [0.5, 0.5]]), 2000, rng=rng)
        panel = Panel(np.column_stack([chain, other]), (2, 2))
        model = estimate_mtd_probit(panel)
        uniform_ll = (panel.n_obs - 1) * math.log(0.5)
        assert model.logliks[0] > uniform_ll + 50


class TestEstimateMtdProbit:
    def test_recovery_with_known_plugins(self):
        # correctly specified model: data drawn from the probit mixture with
        # fixed plug-in matrices, then refit with those matrices supplied;
        # eta itself sits on a soft likelihood ridge, so recovery is checked
        # on the identified quantities, the conditional probabilities
        M1 = np.array([[0.8, 0.2], [0.3, 0.7]])
        M12 = np.array([[0.6, 0.4], [0.45, 0.55]])
        eta_true = np.array([0.0, 2.0, 0.0])

        def true_dist(i1):
            w = norm_cdf(eta_true[0] + eta_true[1] * M1[i1 - 1])
            return w / w.sum()

        grid = _grid([[M1, M12], [np.full((2, 2), 0.5), np.full((2, 2), 0.5)]])
        rng = np.random.default_rng(100)
        n = 5000
        s2 = rng.integers(1, 3, size=n)
        s1 = np.empty(n, dtype=int)
        s1[0] = 1
        for t in range(1, n):
            s1[t] = 1 + (rng.random() > true_dist(s1[t - 1])[0])
        panel = Panel(np.column_stack([s1, s2]), (2, 2))
        fit = estimate_mtd_probit(panel, transmats=grid)

        worst = 0.0
        for i1 in (1, 2):
            expected = true_dist(i1)
            for i2 in (1, 2):
                got = probit_distribution(grid, fit.etas[0], 0, (i1, i2))
                worst = max(worst, float(np.max(np.abs(got - expected))))
        assert worst < 0.05

        # and the fit is at least as good as the truth in-sample
        patterns = _stack_plugin_probs(panel, grid, 0)
        assert fit.logliks[0] >= _equation_loglik(eta_true, *patterns) - 1e-8

    def test_iid_uniform_panel_predicts_uniform(self):
        # with no dependence the identified conditional probabilities are
        # uniform even though the eta coordinates wander along a flat ridge
        rng = np.random.default_rng(1)
        panel = Panel(
            np.column_stack([rng.integers(1, 3, 5000), rng.integers(1, 3, 5000)]),
            (2, 2),
        )
        fit = estimate_mtd_probit(panel)
        worst = max(
            float(np.max(np.abs(probit_distribution(fit.transmats, fit.etas[0], 0, (i1, i2)) - 0.5)))
            for i1 in (1, 2)
            for i2 in (1, 2)
        )
        assert worst < 0.05

    def test_optimizers_agree_on_loglik(self):
        rng = np.random.default_rng(77)
        s1 = simulate_homog_chain(np.array([[0.85, 0.15], [0.25, 0.75]]), 2000, rng=rng)
        s2 = simulate_homog_chain(np.array([[0.6, 0.4], [0.3, 0.7]]), 2000, rng=rng)
        panel = Panel(np.column_stack([s1, s2]), (2, 2))
        # with two states the likelihood rises without end as e_0 -> -inf
        # and the slopes shrink, so neither solver can converge; the fit
        # must still get as high as scipy does
        _assert_not_below_scipy_oracle(panel, estimate_mtd_probit(panel))

    def test_large_panel_converges_with_both_gradient_methods(self):
        # the fit's BFGS and scipy's, both on the closed-form score, at
        # n = 20000 where a differenced gradient was too noisy to reach
        # the 1e-6 stopping tolerance
        rng = np.random.default_rng(2022)
        weights = rng.dirichlet(np.ones(3), size=3)
        rows = rng.dirichlet(np.ones(3), size=(3, 3, 3))
        panel = _simulate_mtd(rng, weights, rows, 20000)
        fit = estimate_mtd_probit(panel)
        assert all(fit.converged)
        _assert_not_below_scipy_oracle(panel, fit)

    def test_loglik_never_below_initial(self):
        rng = np.random.default_rng(3)
        panel = encode_sequences([rng.integers(1, 4, 200).tolist(),
                                  rng.integers(1, 3, 200).tolist()])
        initial = np.array([1.0, 1.0, 1.0])
        fit = estimate_mtd_probit(panel, initial=initial)
        transmats = fit.transmats
        for j in range(2):
            patterns = _stack_plugin_probs(panel, transmats, j)
            assert fit.logliks[j] >= _equation_loglik(initial, *patterns) - 1e-10

    def test_bad_initial_rejected(self):
        panel = encode_sequences([[1, 2, 1, 2], [2, 1, 2, 1]])
        with pytest.raises(ValueError):
            estimate_mtd_probit(panel, initial=[1.0])
        with pytest.raises(ValueError):
            estimate_mtd_probit(panel, initial=[np.inf, 1.0, 1.0])

    def test_non_convergence_warning_states_facts(self):
        # neither equation converges on this small two-state panel; the
        # warning must report what the solver saw, not guess a cause
        rng = np.random.default_rng(5)
        s1 = simulate_homog_chain(np.array([[0.7, 0.3], [0.4, 0.6]]), 400, rng=rng)
        s2 = simulate_homog_chain(np.array([[0.6, 0.4], [0.25, 0.75]]), 400, rng=rng)
        fit = estimate_mtd_probit(encode_sequences([s1.tolist(), s2.tolist()]))
        assert not all(fit.converged)
        for converged, equation in zip(fit.converged, fit.fit_report.equations):
            notes = [w for w in equation.warnings if w.startswith("optimizer")]
            if converged:
                assert notes == []
                continue
            (note,) = notes
            match = re.fullmatch(
                r"optimizer did not converge: (iteration cap reached|line search stalled) "
                r"after (\d+) iterations; final max \|score\| (\S+)",
                note,
            )
            assert match, note
            assert 0 < int(match[2]) <= MAX_INNER_ITER
            assert float(match[3]) > GRAD_TOL

    def test_label_equivariance(self):
        # permuting state labels permutes the fitted probabilities
        rng = np.random.default_rng(9)
        s1 = simulate_homog_chain(np.array([[0.8, 0.2], [0.3, 0.7]]), 1500, rng=rng)
        s2 = simulate_homog_chain(np.array([[0.55, 0.45], [0.4, 0.6]]), 1500, rng=rng)
        panel = Panel(np.column_stack([s1, s2]), (2, 2))
        swapped = Panel(np.column_stack([3 - s1, 3 - s2]), (2, 2))
        fit = estimate_mtd_probit(panel)
        fit_swapped = estimate_mtd_probit(swapped)
        for i1 in (1, 2):
            for i2 in (1, 2):
                orig = probit_distribution(fit.transmats, fit.etas[0], 0, (i1, i2))
                swap = probit_distribution(
                    fit_swapped.transmats, fit_swapped.etas[0], 0, (3 - i1, 3 - i2)
                )
                assert np.max(np.abs(orig - swap[::-1])) < 1e-5


class TestSharedEvaluation:
    """The objective and the score of one equation share one evaluation per point."""

    @pytest.fixture(scope="class")
    def panel(self):
        rng = np.random.default_rng(2022)
        weights = rng.dirichlet(np.ones(3), size=3)
        rows = rng.dirichlet(np.ones(3), size=(3, 3, 3))
        return _simulate_mtd(rng, weights, rows, 3000)

    def test_score_adds_no_evaluation(self, panel, monkeypatch):
        # a point is (equation's plugin tensor, bits of the etas); the
        # tensors are held, so no id is reused
        plugins, evaluated, objective_points, score_points = [], [], [], []

        def spy(real, log):
            def wrapper(etas, plugin, *args, **kwargs):
                plugins.append(plugin)
                log.append((id(plugin), etas.tobytes()))
                return real(etas, plugin, *args, **kwargs)
            return wrapper

        monkeypatch.setattr(probit, "_evaluate", spy(probit._evaluate, evaluated))
        monkeypatch.setattr(probit, "_equation_loglik", spy(_equation_loglik, objective_points))
        monkeypatch.setattr(probit, "_equation_score", spy(_equation_score, score_points))
        fit = estimate_mtd_probit(panel)
        assert all(fit.converged)
        # every score point was an objective point, and no point twice
        assert set(score_points) <= set(objective_points)
        assert len(evaluated) == len(set(objective_points))

    def test_fit_is_bitwise_a_memo_free_fit(self, panel):
        fit = estimate_mtd_probit(panel)
        for j in range(panel.n_chains):
            patterns = _stack_plugin_probs(panel, fit.transmats, j)

            def objective(theta):
                return _equation_loglik(theta, *patterns)

            result = maximize_unconstrained(
                objective, np.ones(4), gradient=lambda theta: _equation_score(theta, *patterns)
            )
            std_errors = _hessian_std_errors(numeric_hessian(objective, result.argmax))
            equation = fit.fit_report.equations[j]
            assert fit.etas[j].tobytes() == result.argmax.tobytes()
            assert fit.logliks[j] == result.value
            assert equation.loglik == result.value
            assert equation.std_errors.tobytes() == std_errors.tobytes()

    def test_a_point_changed_in_place_is_evaluated_afresh(self, panel):
        transmats = transition_matrix_grid(panel)
        patterns = _stack_plugin_probs(panel, transmats, 0)
        other = _stack_plugin_probs(panel, transmats, 1)
        evaluate = probit._last_evaluation()
        theta = np.array([0.2, 1.0, -0.5, 0.7])
        for step in range(3):
            for plugins in (patterns, other, other, patterns):
                ll = _equation_loglik(theta, *plugins, evaluate=evaluate)
                score = _equation_score(theta, *plugins, evaluate=evaluate)
                assert ll == _equation_loglik(theta.copy(), *plugins)
                assert score.tobytes() == _equation_score(theta.copy(), *plugins).tobytes()
            theta[step + 1] += 0.25  # same array, new point
