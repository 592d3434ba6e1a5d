"""Multimatrix mixture model: prediction, likelihood, estimation."""

import math
import re

import numpy as np
import pytest

from markovmix._mixture import mixture_gradient, mixture_hessian, mixture_loglik
from markovmix.data import Panel, TransitionMatrix, encode_sequences, transition_matrix_grid
from markovmix.exceptions import DataError
from markovmix.mtd import (
    MtdModel,
    _pattern_prob_tensor,
    estimate_lambda_minmax,
    estimate_mtd,
    minmax_objective,
    mtd_hessian,
    mtd_loglik,
    mtd_predict,
    realized_prob_tensor,
)
from markovmix.optim import numeric_hessian
from markovmix.simulation import simulate_homog_chain
from markovmix.inference import FitReport


def _model_from(weights, transmats):
    s = len(transmats)
    return MtdModel(
        weights=np.asarray(weights, dtype=float),
        transmats=transmats,
        logliks=np.zeros(s),
        fit_report=FitReport([]),
    )


def _grid(mats):
    return [
        [TransitionMatrix(np.asarray(m, dtype=float), k, j) for k, m in enumerate(row)]
        for j, row in enumerate(mats)
    ]


def _lagged_copy_panel(n):
    """Chain 0 repeats chain 1's previous state."""
    rng = np.random.default_rng(77)
    source = simulate_homog_chain(np.array([[0.7, 0.3], [0.4, 0.6]]), n, rng=rng)
    copy = np.concatenate([[1], source[:-1]])
    return Panel(np.column_stack([copy, source]), (2, 2))


def _brute_force_loglik(panel, weights, transmats, equation):
    """Per-step product oracle, written independently of the vector path."""
    total = 0.0
    for t in range(1, panel.n_obs):
        prob = 0.0
        for k in range(panel.n_chains):
            i_prev = panel.states[t - 1, k]
            i_now = panel.states[t, equation]
            prob += weights[equation][k] * transmats[equation][k].probs[i_prev - 1, i_now - 1]
        if prob <= 0:
            return -math.inf
        total += math.log(prob)
    return total


class TestMtdPredict:
    def setup_method(self):
        a = [[0.9, 0.1], [0.2, 0.8]]
        b = [[0.6, 0.4], [0.3, 0.7]]
        self.transmats = _grid([[a, b], [b, a]])

    def test_degenerate_mixture_returns_row(self):
        model = _model_from([[1.0, 0.0], [0.5, 0.5]], self.transmats)
        dist = mtd_predict(model, (1, 2))[0]
        assert dist.tolist() == [0.9, 0.1]

    def test_identical_rows_reproduced(self):
        same = [[0.35, 0.65], [0.35, 0.65]]
        model = _model_from([[0.5, 0.5], [0.5, 0.5]], _grid([[same, same], [same, same]]))
        dist = mtd_predict(model, (1, 2))[0]
        assert np.allclose(dist, [0.35, 0.65])

    def test_hand_mixture(self):
        model = _model_from([[0.6, 0.4], [0.5, 0.5]], self.transmats)
        # 0.6 * (0.9, 0.1) + 0.4 * (0.3, 0.7) = (0.66, 0.34)
        dist = mtd_predict(model, (1, 2))[0]
        assert np.allclose(dist, [0.66, 0.34])

    def test_rows_sum_to_one(self):
        model = _model_from([[0.3, 0.7], [0.8, 0.2]], self.transmats)
        for lagged in [(1, 1), (1, 2), (2, 1), (2, 2)]:
            for dist in mtd_predict(model, lagged):
                assert dist.sum() == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("lagged, message", [
        ((0, 1), "chain 0 lag state 0 outside 1..2"),
        ((1, 3), "chain 1 lag state 3 outside 1..2"),
    ], ids=["lag-0", "lag-m+1"])
    def test_lag_state_out_of_range(self, lagged, message):
        # a state 0 must not read row -1, the last state's row
        model = _model_from([[0.6, 0.4], [0.5, 0.5]], self.transmats)
        with pytest.raises(DataError, match=re.escape(message)):
            mtd_predict(model, lagged)

    def test_non_integer_lag_state(self):
        # a cast to int would read 1.5 as state 1
        model = _model_from([[0.6, 0.4], [0.5, 0.5]], self.transmats)
        with pytest.raises(DataError, match=re.escape("chain 0 lag state 1.5 is not an integer")):
            mtd_predict(model, [1.5, 1])


class TestMtdLoglik:
    def test_all_half_probabilities(self):
        uniform = [[0.5, 0.5], [0.5, 0.5]]
        transmats = _grid([[uniform, uniform], [uniform, uniform]])
        panel = encode_sequences([[1, 2, 1], [2, 1, 2]])
        ll = mtd_loglik(panel, np.full((2, 2), 0.5), transmats)
        assert ll[0] == pytest.approx(2 * math.log(0.5), abs=1e-12)

    def test_degenerate_weights_reduce_to_marginal(self):
        rng = np.random.default_rng(0)
        panel = encode_sequences([rng.integers(1, 3, 40).tolist(),
                                  rng.integers(1, 3, 40).tolist()])
        from markovmix.data import transition_matrix_grid

        transmats = transition_matrix_grid(panel)
        ll = mtd_loglik(panel, np.array([[1.0, 0.0], [0.0, 1.0]]), transmats)
        own = sum(
            math.log(transmats[0][0].probs[panel.states[t - 1, 0] - 1, panel.states[t, 0] - 1])
            for t in range(1, panel.n_obs)
        )
        assert ll[0] == pytest.approx(own, abs=1e-10)

    def test_matches_brute_force_product(self):
        rng = np.random.default_rng(3)
        panel = encode_sequences([rng.integers(1, 3, 5).tolist() + [1, 2],
                                  rng.integers(1, 3, 5).tolist() + [1, 2]])
        from markovmix.data import transition_matrix_grid

        transmats = transition_matrix_grid(panel)
        weights = np.array([[0.4, 0.6], [0.7, 0.3]])
        ll = mtd_loglik(panel, weights, transmats)
        for j in range(2):
            assert ll[j] == pytest.approx(
                _brute_force_loglik(panel, weights, transmats, j), rel=1e-12
            )

    def test_zero_probability_signals_minus_inf(self):
        a = [[1.0, 0.0], [0.0, 1.0]]
        transmats = _grid([[a, a], [a, a]])
        panel = encode_sequences([[1, 2, 2], [1, 2, 2]])  # 1->2 impossible under identity
        ll = mtd_loglik(panel, np.full((2, 2), 0.5), transmats)
        assert ll[0] == -math.inf


class TestEstimateMtd:
    def test_lagged_copy_recovers_source(self):
        model = estimate_mtd(_lagged_copy_panel(1001))
        assert model.weights[0, 1] >= 0.95
        assert all(model.converged)

    def test_boundary_warning_only_on_a_zero_weight(self):
        # chain 0's column for source chain 1 is 1 on every step, so
        # equation 0 puts all weight on it and none on chain 0's own lag;
        # equation 1 keeps both weights positive
        model = estimate_mtd(_lagged_copy_panel(1001))
        boundary = [any("simplex boundary" in w for w in eq.warnings)
                    for eq in model.fit_report.equations]
        assert model.weights[0].min() == 0.0
        assert model.weights[1].min() > 1e-8
        assert boundary == [True, False]

    def test_flat_likelihood_flagged(self):
        col = [1, 1, 2, 2] * 30 + [1]
        panel = Panel(np.column_stack([col, col]), (2, 2))
        model = estimate_mtd(panel)
        assert model.flat_likelihood[0]
        assert any("flat" in w for w in model.fit_report.equations[0].warnings)

    def test_loglik_not_below_vertices(self):
        rng = np.random.default_rng(5)
        panel = encode_sequences([rng.integers(1, 4, 80).tolist(),
                                  rng.integers(1, 3, 80).tolist()])
        model = estimate_mtd(panel)
        from markovmix.data import transition_matrix_grid

        transmats = transition_matrix_grid(panel)
        for j in range(2):
            for v in range(2):
                vertex = np.zeros(2)
                vertex[v] = 1.0
                weights = np.vstack([vertex, vertex])
                assert model.logliks[j] >= mtd_loglik(panel, weights, transmats)[j] - 1e-9

    def test_constrained_simplex_membership(self):
        rng = np.random.default_rng(6)
        panel = encode_sequences([rng.integers(1, 3, 60).tolist(),
                                  rng.integers(1, 3, 60).tolist()])
        model = estimate_mtd(panel)
        for j in range(2):
            assert model.weights[j].sum() == pytest.approx(1.0, abs=1e-8)
            assert (model.weights[j] >= -1e-8).all()

    def test_logliks_match_per_step_form(self):
        rng = np.random.default_rng(12)
        source = simulate_homog_chain(np.array([[0.7, 0.2, 0.1], [0.2, 0.6, 0.2],
                                                [0.3, 0.3, 0.4]]), 1500, rng=rng)
        panel = encode_sequences([source.tolist(), np.roll(source, 1).tolist(),
                                  rng.integers(1, 3, 1500).tolist()])
        model = estimate_mtd(panel)
        for j in range(panel.n_chains):
            q = realized_prob_tensor(panel, model.transmats, j)
            per_step = mixture_loglik(model.weights[j], q)
            assert model.logliks[j] == pytest.approx(per_step, rel=1e-12)


class TestCountedMixture:
    """Counted mixture functions on distinct patterns against the per-step forms."""

    def setup_method(self):
        rng = np.random.default_rng(44)
        self.panel = encode_sequences([rng.integers(1, 4, 400).tolist(),
                                       rng.integers(1, 3, 400).tolist(),
                                       rng.integers(1, 4, 400).tolist()])
        self.transmats = transition_matrix_grid(self.panel)
        self.weights = np.array([0.5, 0.3, 0.2])

    def _both_forms(self, j):
        q, counts = _pattern_prob_tensor(self.panel, self.transmats, j)
        assert q.shape[0] < self.panel.n_obs - 1
        assert counts.sum() == self.panel.n_obs - 1
        return (q, counts), realized_prob_tensor(self.panel, self.transmats, j)

    def test_loglik(self):
        for j in range(3):
            (q, counts), per_step = self._both_forms(j)
            counted = mixture_loglik(self.weights, q, counts)
            assert counted == pytest.approx(mixture_loglik(self.weights, per_step), rel=1e-12)

    def test_gradient(self):
        for j in range(3):
            (q, counts), per_step = self._both_forms(j)
            counted = mixture_gradient(self.weights, q, counts)
            expected = mixture_gradient(self.weights, per_step)
            assert np.max(np.abs(counted - expected)) <= 1e-12 * np.max(np.abs(expected))

    def test_hessian(self):
        for j in range(3):
            (q, counts), per_step = self._both_forms(j)
            counted = mixture_hessian(self.weights, q, counts)
            expected = mixture_hessian(self.weights, per_step)
            assert np.max(np.abs(counted - expected)) <= 1e-12 * np.max(np.abs(expected))
            assert np.array_equal(counted, counted.T)

    def test_hessian_matches_finite_differences(self):
        q, counts = _pattern_prob_tensor(self.panel, self.transmats, 1)
        numeric = numeric_hessian(lambda w: mixture_loglik(w, q, counts), self.weights)
        analytic = mixture_hessian(self.weights, q, counts)
        assert np.max(np.abs(analytic - numeric)) / np.max(np.abs(numeric)) < 1e-5

    def test_zero_mixture_is_minus_inf(self):
        q = np.array([[0.5, 0.0], [0.0, 0.4]])
        assert mixture_loglik(np.array([1.0, 0.0]), q, np.array([3.0, 2.0])) == -math.inf


class TestEstimateLambdaMinmax:
    def test_single_chain_trivial(self):
        panel = encode_sequences([[1, 2, 1, 2, 1]])
        weights = estimate_lambda_minmax(panel)
        assert weights.tolist() == [[1.0]]

    def test_matches_grid_search(self):
        for seed in range(4):
            rng = np.random.default_rng(seed)
            panel = encode_sequences([rng.integers(1, 3, 60).tolist(),
                                      rng.integers(1, 3, 60).tolist()])
            weights = estimate_lambda_minmax(panel)
            grid = np.linspace(0.0, 1.0, 1001)
            for j in range(2):
                lp_obj = minmax_objective(panel, j, weights[j])
                grid_obj = min(
                    minmax_objective(panel, j, np.array([g, 1.0 - g])) for g in grid
                )
                assert lp_obj <= grid_obj + 2e-3

    def test_simplex_feasible(self):
        rng = np.random.default_rng(9)
        panel = encode_sequences([rng.integers(1, 4, 90).tolist(),
                                  rng.integers(1, 3, 90).tolist()])
        weights = estimate_lambda_minmax(panel)
        assert np.allclose(weights.sum(axis=1), 1.0, atol=1e-9)
        assert (weights >= -1e-12).all()


class TestMtdHessian:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(21)
        panel = encode_sequences([rng.integers(1, 3, 30).tolist(),
                                  rng.integers(1, 3, 30).tolist()])
        model = estimate_mtd(panel)
        # evaluate at an interior point to keep the likelihood smooth
        model.weights[:] = np.array([[0.6, 0.4], [0.3, 0.7]])
        hessians = mtd_hessian(panel, model)
        for j in range(2):
            q = realized_prob_tensor(panel, model.transmats, j)

            def f(w, q=q):
                from markovmix._mixture import mixture_loglik

                return mixture_loglik(w, q)

            numeric = numeric_hessian(f, model.weights[j], h=1e-4)
            rel = np.max(np.abs(hessians[j] - numeric)) / max(1.0, np.max(np.abs(numeric)))
            assert rel < 1e-5

    def test_single_chain_collapse(self):
        panel = encode_sequences([[1, 2, 1, 2, 1, 1, 2]])
        model = estimate_mtd(panel)
        hess = mtd_hessian(panel, model)[0]
        # with one chain the mixture probability cancels: H = -(n-1)
        assert hess.shape == (1, 1)
        assert hess[0, 0] == pytest.approx(-(panel.n_obs - 1), rel=1e-12)

    def test_symmetric(self):
        rng = np.random.default_rng(2)
        panel = encode_sequences([rng.integers(1, 4, 50).tolist(),
                                  rng.integers(1, 3, 50).tolist()])
        model = estimate_mtd(panel)
        for hess in mtd_hessian(panel, model):
            assert np.array_equal(hess, hess.T)


class TestDegenerateLikelihood:
    def test_all_minus_inf_raises(self):
        # identity transitions contradict the realized moves under every
        # vertex and the uniform start
        a = [[1.0, 0.0], [0.0, 1.0]]
        transmats = _grid([[a, a], [a, a]])
        panel = encode_sequences([[1, 2, 2], [1, 2, 2]])
        ll = mtd_loglik(panel, np.full((2, 2), 0.5), transmats)
        assert ll[0] == -math.inf
        # estimate_mtd recomputes matrices from data, which are never
        # degenerate this way, so exercise the internal guard directly
        from markovmix._mixture import mixture_loglik

        q = realized_prob_tensor(panel, transmats, 0)
        assert mixture_loglik(np.array([0.5, 0.5]), q) == -math.inf
