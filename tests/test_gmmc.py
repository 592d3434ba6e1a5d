"""Covariate mixture model: tensor, likelihood, estimation, extraction."""

import math

import numpy as np
import pytest

from markovmix import gmmc, mnlogit
from markovmix.data import CovariateMatrix, Panel, encode_sequences
from markovmix.exceptions import DataError, EstimationError
from markovmix.cli import main
from markovmix.gmmc import (
    build_prob_tensor,
    conditional_distribution,
    conditional_transition_matrix,
    estimate_gmmc,
    gmmc_hessian,
    gmmc_loglik,
    load_fit,
    save_fit,
    smoothed_conditional_probs,
    transition_edge_list,
)
from markovmix.mnlogit import _lag_design, build_design, predict_probs
from markovmix.mtd import estimate_mtd
from markovmix.optim import numeric_hessian
from markovmix.simulation import simulate_homog_chain, simulate_nonhomog_chain


@pytest.fixture(scope="module")
def part1_style_fit():
    """A well-identified two-chain fit with a real covariate effect."""
    rng = np.random.default_rng(3)
    n = 1200
    coefs = np.array([[-1.2, 1.4, 0.45]])
    x = rng.normal(2.0, 5.0, size=n)
    s1 = simulate_nonhomog_chain(coefs, x, n, rng=rng)
    s2 = simulate_homog_chain(np.array([[0.55, 0.45], [0.3, 0.7]]), n, rng=rng)
    panel = Panel(np.column_stack([s1, s2]), (2, 2))
    cov = CovariateMatrix(x.reshape(-1, 1), ["x"])
    fit = estimate_gmmc(panel, cov, x_lag=1)
    return panel, cov, fit


class _CountedTensor(np.ndarray):
    """A mixture tensor that logs the weights of each ``q @ w`` into ``log``
    while it is a list; whatever is computed from it is a plain array."""

    log = None

    def __matmul__(self, other):
        if _CountedTensor.log is not None and self.shape[0] > self.shape[1] == np.size(other):
            _CountedTensor.log.append(np.asarray(other).tobytes())
        return self.view(np.ndarray) @ np.asarray(other)

    def __array_wrap__(self, array, context=None, return_scalar=False):
        array = array.view(np.ndarray)
        return array[()] if return_scalar else array


class TestBuildProbTensor:
    def test_shapes(self):
        rng = np.random.default_rng(0)
        panel = encode_sequences([rng.integers(1, 4, 40).tolist(),
                                  rng.integers(1, 3, 40).tolist()])
        cov = CovariateMatrix(rng.normal(size=40), ["x"])
        tensors, submodels = build_prob_tensor(panel, cov, x_lag=1)
        assert len(tensors) == 2 and len(submodels) == 2
        design = build_design(panel, 0, 0, cov, x_lag=1)[0]
        for j, q in enumerate(tensors):
            assert q.shape == (39, 2)
            assert ((q > 0) & (q < 1)).all()
            assert predict_probs(submodels[j][0], design).shape == (39, panel.alphabet_sizes[j])

    def test_zero_covariate_iid_uniform_near_half(self):
        rng = np.random.default_rng(123)
        n = 2500
        panel = Panel(
            np.column_stack([rng.integers(1, 3, n), rng.integers(1, 3, n)]), (2, 2)
        )
        cov = CovariateMatrix(np.zeros((n, 1)), ["zero"])
        tensors, _ = build_prob_tensor(panel, cov, x_lag=1)
        assert np.abs(tensors[0].mean(axis=0) - 0.5).max() < 2.0 / math.sqrt(n)

    def test_copy_chain_probabilities_approach_one(self):
        rng = np.random.default_rng(5)
        n = 2000
        source = simulate_homog_chain(np.array([[0.7, 0.3], [0.4, 0.6]]), n, rng=rng)
        copy = np.concatenate([[1], source[:-1]])
        panel = Panel(np.column_stack([copy, source]), (2, 2))
        cov = CovariateMatrix(rng.normal(size=n), ["x"])
        tensors, submodels = build_prob_tensor(panel, cov, x_lag=1)
        # predicting the copy from its source is deterministic
        assert tensors[0][:, 1].mean() > 0.97
        assert submodels[0][1].separation

    @staticmethod
    def _three_chain_inputs(n=400):
        rng = np.random.default_rng(9)
        x = rng.normal(2.0, 5.0, size=n)
        tm = np.array([[0.6, 0.4], [0.35, 0.65]])
        chains = [simulate_nonhomog_chain(np.array([[-1.2, 1.4, 0.45]]), x, n, rng=rng),
                  simulate_homog_chain(tm, n, rng=rng), simulate_homog_chain(tm, n, rng=rng)]
        return Panel(np.column_stack(chains), (2, 2, 2)), x

    def test_each_design_is_checked_once(self, monkeypatch):
        # the s equations share source chain k's design: s rank checks, not s * s
        calls = []
        check_rank = mnlogit._check_rank
        monkeypatch.setattr(
            mnlogit, "_check_rank", lambda *args: calls.append(args) or check_rank(*args)
        )
        panel, x = self._three_chain_inputs()
        fit = estimate_gmmc(panel, CovariateMatrix(x.reshape(-1, 1), ["x"]))
        assert len(calls) == 3
        assert all(len(row) == 3 for row in fit.submodels)

    def test_rank_deficient_design_names_its_pair(self):
        # the covariate copies chain 1's lagged indicator of state 2: only
        # source chain 1's design is rank deficient
        panel, _ = self._three_chain_inputs()
        x = (panel.states[:, 1] == 2).astype(float)
        with pytest.raises(
            DataError, match="conditional fit for equation 0, source chain 1: design is rank"
        ):
            build_prob_tensor(panel, CovariateMatrix(x.reshape(-1, 1), ["x"]), x_lag=1)

    def test_failing_pair_is_named(self):
        panel = encode_sequences([[1, 2, 1, 2, 1, 2], [1, 2, 2, 1, 1, 2]])
        # constant non-zero covariate is exactly collinear with the intercept
        cov = CovariateMatrix(np.full((6, 1), 3.7), ["x"])
        with pytest.raises((DataError, EstimationError), match="equation 0, source chain 0"):
            build_prob_tensor(panel, cov, x_lag=1)


class TestGmmcLoglik:
    def test_degenerate_weights(self):
        rng = np.random.default_rng(1)
        q = rng.uniform(0.2, 0.9, size=(10, 2))
        assert gmmc_loglik([1.0, 0.0], q) == pytest.approx(np.log(q[:, 0]).sum(), rel=1e-12)

    def test_all_half_rows(self):
        q = np.full((10, 2), 0.5)
        assert gmmc_loglik([0.5, 0.5], q) == pytest.approx(10 * math.log(0.5), rel=1e-12)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(2)
        q = rng.uniform(0.05, 0.95, size=(6, 2))
        lam = np.array([0.3, 0.7])
        brute = sum(math.log(lam[0] * q[t, 0] + lam[1] * q[t, 1]) for t in range(6))
        assert gmmc_loglik(lam, q) == pytest.approx(brute, rel=1e-12)

    def test_zero_mixture_signals_minus_inf(self):
        q = np.array([[0.0, 0.0], [0.5, 0.5]])
        assert gmmc_loglik([0.5, 0.5], q) == -math.inf


class TestGmmcHessian:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            q = rng.uniform(0.05, 0.95, size=(25, 2))
            lam = rng.dirichlet(np.ones(2)) * 0.8 + 0.1
            analytic = gmmc_hessian(lam, q)
            numeric = numeric_hessian(lambda w: gmmc_loglik(w, q), lam, h=1e-4)
            rel = np.max(np.abs(analytic - numeric)) / max(1.0, np.max(np.abs(numeric)))
            assert rel < 1e-5

    def test_single_source_collapse(self):
        q = np.random.default_rng(4).uniform(0.2, 0.9, size=(30, 1))
        hess = gmmc_hessian(np.array([1.0]), q)
        assert hess[0, 0] == pytest.approx(-30.0, rel=1e-12)

    def test_negative_semidefinite_and_symmetric(self):
        rng = np.random.default_rng(5)
        q = rng.uniform(0.1, 0.9, size=(40, 3))
        lam = rng.dirichlet(np.ones(3))
        hess = gmmc_hessian(lam, q)
        assert np.allclose(hess, hess.T, atol=1e-14)
        assert (np.linalg.eigvalsh(hess) <= 1e-10).all()


class TestEstimateGmmc:
    def test_part1_design_recovers_unit_weight(self, part1_style_fit):
        _, _, fit = part1_style_fit
        assert fit.weights[0, 0] > 0.9
        assert all(fit.converged)

    def test_simplex_feasibility(self, part1_style_fit):
        _, _, fit = part1_style_fit
        for j in range(2):
            assert fit.weights[j].sum() == pytest.approx(1.0, abs=1e-6)
            assert (fit.weights[j] >= -1e-8).all()

    def test_loglik_dominates_uniform_and_vertices(self, part1_style_fit):
        panel, cov, fit = part1_style_fit
        tensors, _ = build_prob_tensor(panel, cov, x_lag=1)
        for j in range(2):
            q = tensors[j]
            assert fit.logliks[j] >= gmmc_loglik(np.array([0.5, 0.5]), q) - 1e-7
            for v in range(2):
                vertex = np.zeros(2)
                vertex[v] = 1.0
                assert fit.logliks[j] >= gmmc_loglik(vertex, q) - 1e-7

    def test_identical_chains_flagged_flat(self):
        rng = np.random.default_rng(8)
        col = simulate_homog_chain(np.array([[0.6, 0.4], [0.35, 0.65]]), 300, rng=rng)
        panel = Panel(np.column_stack([col, col]), (2, 2))
        cov = CovariateMatrix(rng.normal(size=300), ["x"])
        fit = estimate_gmmc(panel, cov)
        assert any("flat" in w for w in fit.fit_report.equations[0].warnings)

    def test_nearly_equal_sources_have_singular_hessian(self, monkeypatch):
        # sources agreeing to 1e-8 identify only their summed weight; the
        # verdict must not hinge on the Hessian's last bits, which used to
        # give standard errors of about 1e6 here
        build = gmmc.build_prob_tensor

        def nearly_equal_sources(*args, **kwargs):
            tensors, submodels = build(*args, **kwargs)
            noise = np.random.default_rng(1).uniform(-1.0, 1.0, size=len(tensors[0]))
            for q in tensors:
                q[:, 1] = q[:, 0] * (1.0 + 1e-8 * noise)
            return tensors, submodels

        monkeypatch.setattr(gmmc, "build_prob_tensor", nearly_equal_sources)
        rng = np.random.default_rng(8)
        tm = np.array([[0.6, 0.4], [0.35, 0.65]])
        panel = Panel(np.column_stack([simulate_homog_chain(tm, 300, rng=rng),
                                       simulate_homog_chain(tm, 300, rng=rng)]), (2, 2))
        fit = estimate_gmmc(panel, CovariateMatrix(rng.normal(size=300), ["x"]))
        for eq in fit.fit_report.equations:
            assert "Hessian is singular; standard errors unavailable" in eq.warnings

    def test_weight_solve_takes_one_product_per_point(self, part1_style_fit, monkeypatch):
        # the value at an accepted line-search point, the gradient there
        # and the next Hessian share one q @ w; a point is taken again
        # only after another, as when a stalled inner solve hands back
        # its last accepted point (equation 1 here)
        panel, cov, fit = part1_style_fit
        build, solve, solves = gmmc.build_prob_tensor, gmmc.maximize_auglag, []

        def counted_tensors(*args, **kwargs):
            tensors, submodels = build(*args, **kwargs)
            return [q.view(_CountedTensor) for q in tensors], submodels

        def logged_solve(*args, **kwargs):
            _CountedTensor.log = []
            try:
                return solve(*args, **kwargs)
            finally:
                solves.append(_CountedTensor.log)
                _CountedTensor.log = None

        monkeypatch.setattr(gmmc, "build_prob_tensor", counted_tensors)
        monkeypatch.setattr(gmmc, "maximize_auglag", logged_solve)
        assert np.array_equal(estimate_gmmc(panel, cov).weights, fit.weights)
        assert len(solves) == 2
        for points in solves:
            assert points and all(a != b for a, b in zip(points, points[1:]))

    def test_initial_projected_from_all_ones(self, part1_style_fit):
        panel, cov, fit = part1_style_fit
        fit_ones = estimate_gmmc(panel, cov, initial=[1.0, 1.0], x_lag=1)
        assert np.max(np.abs(fit_ones.weights - fit.weights)) < 1e-4

    def test_single_chain_rejected(self):
        panel = encode_sequences([[1, 2, 1, 2]])
        cov = CovariateMatrix(np.zeros((4, 1)), ["x"])
        with pytest.raises(DataError, match="2 chains"):
            estimate_gmmc(panel, cov)

    def test_report_columns(self, part1_style_fit):
        _, _, fit = part1_style_fit
        eq = fit.fit_report.equations[0]
        assert np.isfinite(eq.std_errors).all()
        assert eq.z_values[0] == pytest.approx(eq.estimates[0] / eq.std_errors[0])
        from markovmix.inference import normal_p_value

        assert eq.p_values[0] == pytest.approx(normal_p_value(eq.z_values[0]), abs=1e-12)


def _mtd_panel(seed, s, m, n):
    """MTD panel with Dirichlet weights and rows: chain j takes a source
    chain k with probability weights[j, k], then its next state from
    rows[j, k] at k's lagged state."""
    rng = np.random.default_rng(seed)
    weights = rng.dirichlet(np.ones(s), size=s)
    rows = rng.dirichlet(np.ones(m), size=(s, s, m))
    sources = np.column_stack([rng.choice(s, size=n, p=weights[j]) for j in range(s)])
    cum_rows = np.cumsum(rows, axis=-1)
    draws = rng.random((n, s))
    states = np.zeros((n, s), dtype=int)
    for t in range(1, n):
        for j in range(s):
            row = cum_rows[j, sources[t, j], states[t - 1, sources[t, j]]]
            states[t, j] = min(np.searchsorted(row, draws[t, j]), m - 1)
    return Panel(states + 1, (m,) * s)


class TestNestsMtd:
    """Without covariates each first-stage logit is saturated, so its fit is
    the empirical transition matrix and GMMC's weight problem is MTD's.

    The two fits differ only by their solvers' tolerances: the first stage
    stops at a Newton decrement of 1e-9 per observation, and the weight
    solve at 1e-6 on its KKT gradient and on sum(w) - 1.  So the
    log-likelihoods agree to 1e-9 per observation, and the weights and
    standard errors to small fractions of a standard error.  The fit's
    ``logliks`` are taken at the reported weights; the report's
    log-likelihood is not compared.
    """

    @pytest.mark.parametrize(
        "seed, s, m, n",
        [
            (0, 2, 2, 400),
            (1, 3, 3, 400),
            (2, 2, 4, 1500),
            (3, 3, 2, 3000),
            (4, 3, 4, 5000),
            (5, 2, 3, 5000),
            (6, 3, 3, 2000),
            (7, 2, 2, 5000),
        ],
    )
    def test_gmmc_without_covariates_is_mtd(self, seed, s, m, n):
        panel = _mtd_panel(seed, s, m, n)
        fit = estimate_gmmc(panel, CovariateMatrix(np.zeros((n, 0)), []))
        mtd = estimate_mtd(panel)
        assert all(fit.converged) and all(mtd.converged)
        std_errors = np.array([eq.std_errors for eq in mtd.fit_report.equations])
        gmmc_std_errors = np.array([eq.std_errors for eq in fit.fit_report.equations])
        assert np.all(np.isfinite(std_errors)) and np.all(std_errors > 0)
        assert np.max(np.abs(fit.logliks - mtd.logliks)) <= 1e-9 * n
        assert np.max(np.abs(fit.weights - mtd.weights) / std_errors) <= 1e-4
        assert np.max(np.abs(gmmc_std_errors - std_errors) / std_errors) <= 1e-5


class TestConditionalTransitionMatrix:
    def test_rows_are_distributions_across_x(self, part1_style_fit):
        _, _, fit = part1_style_fit
        for x_val in (-10.0, -0.52, 0.0, 1.45, 2.97, 12.0):
            matrix = conditional_transition_matrix(fit, 0, x_val)
            assert np.allclose(matrix.sum(axis=1), 1.0, atol=1e-10)
            assert (matrix >= 0).all()

    def test_covariate_moves_probabilities(self, part1_style_fit):
        _, _, fit = part1_style_fit
        low = conditional_transition_matrix(fit, 0, -8.0)
        high = conditional_transition_matrix(fit, 0, 12.0)
        assert np.max(np.abs(low - high)) > 0.05

    def test_matches_manual_mixture(self, part1_style_fit):
        _, _, fit = part1_style_fit
        x_val = np.array([1.3])
        dist = conditional_distribution(fit, 0, [2, 2], x_val)
        design = _lag_design([2], x_val[None, :], 2)
        manual = fit.weights[0, 0] * predict_probs(fit.submodels[0][0], design)[0]
        manual += fit.weights[0, 1] * predict_probs(fit.submodels[0][1], design)[0]
        assert np.allclose(dist, manual, atol=1e-12)

    @pytest.mark.parametrize("lagged, state", [([0, 1], 0), ([1, 3], 3)])
    def test_lag_state_out_of_range(self, part1_style_fit, lagged, state):
        _, _, fit = part1_style_fit
        with pytest.raises(DataError, match=rf"lag state {state} outside 1\.\.2"):
            conditional_distribution(fit, 0, lagged, 1.3)

    def test_non_integer_lag_state(self, part1_style_fit):
        # the design's indicators would read 1.5 as the reference state 1
        _, _, fit = part1_style_fit
        with pytest.raises(DataError, match=r"lag state 1\.5 is not an integer"):
            conditional_distribution(fit, 0, [1.5, 1], 1.3)

    @pytest.mark.parametrize("equation", [-1, 2])
    def test_equation_out_of_range(self, part1_style_fit, equation):
        _, _, fit = part1_style_fit
        with pytest.raises(DataError, match=rf"chain index {equation} out of range 0\.\.1"):
            conditional_transition_matrix(fit, equation, 1.3)
        with pytest.raises(DataError, match=rf"chain index {equation} out of range 0\.\.1"):
            conditional_distribution(fit, equation, [1, 1], 1.3)

    @pytest.mark.parametrize("x_value", [np.nan, np.inf, -np.inf])
    def test_non_finite_covariate_rejected(self, part1_style_fit, x_value):
        _, _, fit = part1_style_fit
        with pytest.raises(DataError, match="not finite"):
            conditional_transition_matrix(fit, 0, x_value)
        with pytest.raises(DataError, match="not finite"):
            conditional_distribution(fit, 0, [1, 1], [x_value])

    def test_label_mismatch_rejected(self):
        rng = np.random.default_rng(6)
        # chain 0 has 3 labels, chain 1 only 2: same-state conditioning fails
        c0 = rng.integers(1, 4, 60)
        c1 = rng.integers(1, 3, 60)
        panel = Panel(np.column_stack([c0, c1]), (3, 2))
        cov = CovariateMatrix(rng.normal(size=60), ["x"])
        fit = estimate_gmmc(panel, cov)
        with pytest.raises(DataError, match="shared alphabet"):
            conditional_transition_matrix(fit, 0, 0.0)

    def test_edge_list_uses_original_labels(self):
        rng = np.random.default_rng(7)
        raw0 = np.where(rng.random(300) < 0.5, "down", "up").tolist()
        raw1 = np.where(rng.random(300) < 0.5, "down", "up").tolist()
        panel = encode_sequences([raw0, raw1])
        cov = CovariateMatrix(rng.normal(size=300), ["x"])
        fit = estimate_gmmc(panel, cov)
        edges = transition_edge_list(fit, 0, 0.5)
        assert {src for src, _, _ in edges} == {"down", "up"}
        by_source: dict = {}
        for src, _, prob in edges:
            by_source[src] = by_source.get(src, 0.0) + prob
        for total in by_source.values():
            assert total == pytest.approx(1.0, abs=1e-10)


class TestSmoothedConditionalProbs:
    def test_shape_contract(self, part1_style_fit):
        panel, cov, fit = part1_style_fit
        rows = panel.n_obs - 1
        for window in (1, 5):
            out = smoothed_conditional_probs(fit, panel, cov, 0, 0, window=window)
            assert out.shape == (rows - window + 1, 2)

    def test_window_one_is_identity(self, part1_style_fit):
        panel, cov, fit = part1_style_fit
        out = smoothed_conditional_probs(fit, panel, cov, 0, 1, window=1)
        paths = predict_probs(fit.submodels[0][1], build_design(panel, 1, 0, cov, x_lag=1)[0])
        assert np.allclose(out, paths)

    def test_constant_inputs_give_constant_path(self):
        rng = np.random.default_rng(11)
        # constant covariate colum is dropped by the zero-column rule only
        # if exactly zero; use zero covariate for a constant path
        n = 200
        panel = Panel(
            np.column_stack([rng.integers(1, 3, n), rng.integers(1, 3, n)]), (2, 2)
        )
        cov = CovariateMatrix(np.zeros((n, 1)), ["x"])
        fit = estimate_gmmc(panel, cov)
        paths = predict_probs(fit.submodels[0][0], build_design(panel, 0, 0, cov)[0])
        lag = panel.states[:-1, 0]
        # within a fixed lag state the fitted path is constant
        for state in (1, 2):
            rows = paths[lag == state]
            assert np.max(rows.max(axis=0) - rows.min(axis=0)) < 1e-12

    def test_loaded_fit_matches_fresh_fit(self, part1_style_fit, tmp_path, capsys):
        panel, cov, fit = part1_style_fit
        path, resaved = tmp_path / "fit.json", tmp_path / "resaved.json"
        save_fit(fit, path)
        loaded = load_fit(path)
        for j in range(2):
            for k in range(2):
                assert np.array_equal(smoothed_conditional_probs(loaded, panel, cov, j, k),
                                      smoothed_conditional_probs(fit, panel, cov, j, k))
            for x_val in (-0.52, 2.97):
                assert np.array_equal(conditional_transition_matrix(loaded, j, x_val),
                                      conditional_transition_matrix(fit, j, x_val))
        save_fit(loaded, resaved)
        csv_text = []
        for fit_path in (path, resaved):
            assert main(["transmat", "--fit", str(fit_path), "--x", "2.97"]) == 0
            csv_text.append(capsys.readouterr().out)
        assert csv_text[0] == csv_text[1]

    @pytest.mark.parametrize(
        "change, message",
        [
            (lambda panel, cov: (Panel(panel.states[:, [0, 1, 1]], (2, 2, 2)), cov),
             "alphabet sizes"),
            (lambda panel, cov: (panel, CovariateMatrix(np.zeros((panel.n_obs, 2)), ["a", "b"])),
             "2 covariate"),
        ],
        ids=["alphabets", "covariates"],
    )
    def test_data_must_match_the_fit(self, part1_style_fit, change, message):
        panel, cov, fit = part1_style_fit
        with pytest.raises(DataError, match=message):
            smoothed_conditional_probs(fit, *change(panel, cov), 0, 0)

    @pytest.mark.parametrize("equation, source", [(2, 0), (0, -1)])
    def test_index_out_of_range(self, part1_style_fit, equation, source):
        panel, cov, fit = part1_style_fit
        with pytest.raises(DataError, match=r"out of range 0\.\.1"):
            smoothed_conditional_probs(fit, panel, cov, equation, source)


class TestFitSerialization:
    def test_round_trip_predictions(self, part1_style_fit, tmp_path):
        _, _, fit = part1_style_fit
        path = tmp_path / "fit.json"
        save_fit(fit, path)
        loaded = load_fit(path)
        assert np.allclose(loaded.weights, fit.weights, atol=1e-12)
        assert np.allclose(loaded.logliks, fit.logliks, atol=1e-12)
        for x_val in (-0.52, 2.97):
            a = conditional_transition_matrix(fit, 0, x_val)
            b = conditional_transition_matrix(loaded, 0, x_val)
            assert np.allclose(a, b, atol=1e-12)

    def test_version_check(self, part1_style_fit, tmp_path):
        import json

        _, _, fit = part1_style_fit
        path = tmp_path / "fit.json"
        save_fit(fit, path)
        doc = json.loads(path.read_text())
        doc["version"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match="version"):
            load_fit(path)

    def test_format_check(self, tmp_path):
        path = tmp_path / "nope.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(DataError, match="not a serialized fit"):
            load_fit(path)
