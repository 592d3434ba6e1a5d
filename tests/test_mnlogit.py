"""Multinomial logit: closed forms, score identity, calibration."""

import warnings

import numpy as np
import pytest

from markovmix.data import CovariateMatrix, encode_sequences
from markovmix.exceptions import DataError, EstimationError
from markovmix.mnlogit import (
    DesignSpec,
    MnLogitModel,
    _check_rank,
    _mnlogit_hessian,
    build_design,
    fit_mnlogit,
    mnlogit_loglik,
    mnlogit_score,
    predict_probs,
)
from markovmix.optim import numeric_gradient, numeric_hessian


def _simulate_logit(rng, beta, n):
    """Draw (design, response) from a reference-coded logit model."""
    m_minus_1, p = beta.shape
    design = np.column_stack([np.ones(n)] + [rng.normal(size=n) for _ in range(p - 1)])
    logits = np.hstack([np.zeros((n, 1)), design @ beta.T])
    probs = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs /= probs.sum(axis=1, keepdims=True)
    cum = probs.cumsum(axis=1)
    response = 1 + (rng.random((n, 1)) > cum[:, :-1]).sum(axis=1)
    return design, response


class TestBuildDesign:
    def test_column_count(self):
        panel = encode_sequences([[1, 2, 1, 2, 2], [1, 1, 2, 2, 1]])
        cov = CovariateMatrix(np.arange(5.0), ["x"])
        design, response, spec = build_design(panel, 0, 1, cov, x_lag=1)
        assert spec.n_columns == 3  # intercept + 1 lag indicator + 1 covariate
        assert design.shape == (4, 3)
        assert len(response) == 4

    def test_reference_lag_state_all_zero(self):
        panel = encode_sequences([[1, 1, 1, 2, 1], [1, 2, 1, 2, 1]])
        design, _, _ = build_design(panel, 0, 1)
        # rows whose lag state is 1 have a zero indicator column
        lag = panel.states[:-1, 0]
        assert np.array_equal(design[:, 1], (lag == 2).astype(float))

    def test_x_lag_shifts_covariate(self):
        panel = encode_sequences([[1, 2, 1, 2, 1], [2, 1, 2, 1, 2]])
        cov = CovariateMatrix(np.arange(5.0), ["x"])
        d1, _, _ = build_design(panel, 0, 0, cov, x_lag=1)
        d0, _, _ = build_design(panel, 0, 0, cov, x_lag=0)
        assert d1[:, 2].tolist() == [0.0, 1.0, 2.0, 3.0]
        assert d0[:, 2].tolist() == [1.0, 2.0, 3.0, 4.0]


class TestFitMnlogit:
    def test_intercept_only_binary_matches_frequency(self):
        rng = np.random.default_rng(7)
        y = rng.integers(1, 3, size=200)
        model = fit_mnlogit(np.ones((200, 1)), y)
        p2 = predict_probs(model, np.array([[1.0]]))[0, 1]
        assert p2 == pytest.approx((y == 2).mean(), abs=1e-8)

    def test_intercept_only_three_states_matches_frequencies(self):
        rng = np.random.default_rng(8)
        y = rng.integers(1, 4, size=300)
        model = fit_mnlogit(np.ones((300, 1)), y)
        probs = predict_probs(model, np.array([[1.0]]))[0]
        emp = np.bincount(y, minlength=4)[1:] / 300
        assert np.max(np.abs(probs - emp)) < 1e-8

    def test_score_matches_numeric_gradient(self):
        rng = np.random.default_rng(5)
        beta_true = np.array([[0.3, -0.8, 0.5], [-0.2, 0.4, -0.6]])
        design, response = _simulate_logit(rng, beta_true, 150)
        point = rng.normal(size=(2, 3)) * 0.4
        analytic = mnlogit_score(point, design, response)
        numeric = numeric_gradient(
            lambda v: mnlogit_loglik(v.reshape(2, 3), design, response),
            point.ravel(),
            h=1e-6,
        )
        rel = np.max(np.abs(analytic - numeric)) / max(1.0, np.max(np.abs(numeric)))
        assert rel < 1e-6

    @pytest.mark.parametrize("offset", [0.0, 710.0, -710.0])
    def test_loglik_matches_scipy_logsumexp(self, offset):
        from scipy.special import logsumexp

        rng = np.random.default_rng(9)
        design, response = _simulate_logit(rng, np.array([[0.3, -0.8], [-0.2, 0.4]]), 120)
        # an intercept shift of +-710 puts the logits of states 2 and 3
        # around exp's overflow limit (709.8) and far below zero
        point = np.array([[offset, 0.5], [offset - 1.0, -0.7]])
        logits = np.hstack([np.zeros((120, 1)), design @ point.T])
        oracle = float(
            (logits[np.arange(120), response - 1] - logsumexp(logits, axis=1)).sum()
        )
        value = mnlogit_loglik(point, design, response)
        assert np.isfinite(value)
        assert value == pytest.approx(oracle, rel=1e-12, abs=1e-9)

    def test_hessian_matches_numeric_hessian(self):
        rng = np.random.default_rng(6)
        beta = np.array([[0.3, -0.8, 0.5], [-0.2, 0.4, -0.6]])
        design, response = _simulate_logit(rng, beta, 200)
        point = rng.normal(size=(2, 3)) * 0.4
        with np.errstate(all="raise"):
            analytic = _mnlogit_hessian(point, design)
            numeric = numeric_hessian(
                lambda v: mnlogit_loglik(v.reshape(2, 3), design, response), point.ravel()
            )
        rel = np.max(np.abs(analytic - numeric)) / np.max(np.abs(numeric))
        assert rel < 1e-6

    def test_extreme_logits_match_logsumexp_oracle(self):
        from scipy.special import logsumexp

        rng = np.random.default_rng(12)
        design, response = _simulate_logit(rng, np.array([[0.3, -0.8], [-0.2, 0.4]]), 120)
        design[:, 1] = np.where(design[:, 1] < 0, -1.0, 1.0)
        # every logit of states 2 and 3 is at least 800 in absolute value
        point = np.array([[0.0, 900.0], [850.0, -50.0]])
        logits = np.hstack([np.zeros((120, 1)), design @ point.T])
        assert np.min(np.abs(logits[:, 1:])) >= 800.0
        oracle = float((logits[np.arange(120), response - 1] - logsumexp(logits, axis=1)).sum())
        with np.errstate(all="raise"):
            value = mnlogit_loglik(point, design, response)
            model = MnLogitModel(point, 3, DesignSpec(1, 1, 0), loglik=value,
                                 converged=True, iterations=0)
            probs = predict_probs(model, design)
        assert value == pytest.approx(oracle, rel=1e-12)
        assert np.allclose(probs.sum(axis=1), 1.0, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("scale", [1.0, 1e14, 1e100])
    def test_rank_check_ignores_covariate_units(self, scale):
        rng = np.random.default_rng(3)
        design, response = _simulate_logit(rng, np.array([[0.3, 0.8], [-0.2, -0.5]]), 2000)
        baseline = fit_mnlogit(design, response)
        scaled = design * np.array([1.0, scale])
        model = fit_mnlogit(scaled, response)
        assert model.converged
        assert np.allclose(model.coefficients * np.array([1.0, scale]),
                           baseline.coefficients, rtol=1e-8, atol=1e-10)
        collinear = np.column_stack([scaled, 3.0 * scaled[:, 1]])
        # either member of the collinear pair is the dependent one; never the intercept
        with pytest.raises(DataError, match=r"dependent column indices: \[[12]\]$"):
            fit_mnlogit(collinear, response)

    def test_rank_check_survives_a_huge_cell(self):
        design = np.column_stack([np.ones(50), np.random.default_rng(1).normal(size=50)])
        design[5, 1] = 1e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the overflow showed as a RuntimeWarning
            _check_rank(design, None)  # full rank: no column named

    def test_simulation_calibration_3se_coverage(self):
        # frozen-seed calibration: coefficient within 3 estimated standard
        # errors of truth in at least 99% of (replication, coefficient) pairs
        rng = np.random.default_rng(11)
        beta_true = np.array([[0.5, -0.7]])
        hits = total = 0
        for _ in range(120):
            design, response = _simulate_logit(rng, beta_true, 800)
            model = fit_mnlogit(design, response)
            info = -_mnlogit_hessian(model.coefficients, design)
            ses = np.sqrt(np.diag(np.linalg.inv(info))).reshape(1, 2)
            inside = np.abs(model.coefficients - beta_true) <= 3 * ses
            hits += inside.sum()
            total += inside.size
        assert hits / total >= 0.99

    def test_zero_covariate_column_is_ignored(self):
        rng = np.random.default_rng(4)
        design = np.column_stack([np.ones(120), rng.normal(size=120), np.zeros(120)])
        y = rng.integers(1, 3, size=120)
        model = fit_mnlogit(design, y)
        assert model.coefficients[0, 2] == 0.0
        assert model.converged

    def test_collinear_columns_rejected_by_name(self):
        rng = np.random.default_rng(4)
        z = rng.normal(size=80)
        design = np.column_stack([np.ones(80), z, 2.0 * z])
        with pytest.raises(DataError, match="rank deficient"):
            fit_mnlogit(design, rng.integers(1, 3, size=80))

    def test_separation_flagged_not_fatal(self):
        # a perfectly separating covariate drives |beta| past the bound
        x = np.concatenate([-np.ones(40) - np.arange(40) / 40, np.ones(40) + np.arange(40) / 40])
        y = np.concatenate([np.ones(40, dtype=int), np.full(40, 2)])
        design = np.column_stack([np.ones(80), x])
        model = fit_mnlogit(design, y)
        assert model.separation

    def test_missing_response_state_rejected(self):
        with pytest.raises(DataError, match="never observed"):
            fit_mnlogit(np.ones((30, 1)), np.ones(30, dtype=int), n_states=2)

    def test_single_state_response_rejected(self):
        # a chain that never leaves state 1 is coded with a one-state alphabet
        with pytest.raises(DataError, match="at least 2"):
            fit_mnlogit(np.ones((30, 1)), np.ones(30, dtype=int))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_design_rejected(self, bad):
        design = np.column_stack([np.ones(30), np.linspace(-1.0, 1.0, 30)])
        design[3, 1] = bad
        with pytest.raises(DataError, match="non-finite"):
            fit_mnlogit(design, np.tile([1, 2], 15))

    def test_overflowing_information_matrix_fails_fast(self):
        # X'WX overflows on a covariate of 1e300; the first non-finite
        # Newton step ends the fit instead of 100 iterations on NaN
        rng = np.random.default_rng(0)
        design = np.column_stack([np.ones(30), 1e300 * rng.normal(size=30)])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(EstimationError, match="information matrix overflowed"):
                fit_mnlogit(design, rng.integers(1, 3, size=30))


def _qr_rank(design):
    """The pivoted-QR verdict: |R_ii| > |R_00| * max(shape) * eps on unit max-abs columns."""
    import scipy.linalg

    scaled = design / np.max(np.abs(design), axis=0)
    r, pivots = scipy.linalg.qr(scaled, mode="r", pivoting=True)
    diag = np.abs(np.diag(r))
    return int((diag > diag[0] * max(design.shape) * np.finfo(float).eps).sum()), pivots


def _verdict_designs():
    rng = np.random.default_rng(21)
    designs = {}
    # the full-rank designs of the scale and huge-cell tests
    scale_design, _ = _simulate_logit(np.random.default_rng(3), np.array([[0.3, 0.8], [-0.2, -0.5]]), 2000)
    for scale in (1.0, 1e14, 1e100):
        designs[f"scale {scale:g}"] = scale_design * np.array([1.0, scale])
    huge = np.column_stack([np.ones(50), np.random.default_rng(1).normal(size=50)])
    huge[5, 1] = 1e308
    designs["huge cell"] = huge
    # planted collinearity: multiples, combinations and complete indicator sets
    for trial in range(12):
        n, p = 40 + 30 * trial, 2 + trial % 4
        base = np.column_stack([np.ones(n)] + [rng.normal(size=n) for _ in range(p - 1)])
        a, b = rng.choice(p, 2, replace=False)
        planted = rng.normal() * base[:, a] + (trial % 3) * rng.normal() * base[:, b]
        design = np.insert(base, rng.integers(0, p + 1), planted, axis=1)
        designs[f"planted {trial}"] = design * 10.0 ** rng.integers(-60, 60, size=p + 1)
    lag = rng.integers(1, 4, size=200)
    designs["all lag indicators"] = np.column_stack(
        [np.ones(200)] + [(lag == state).astype(float) for state in (1, 2, 3)] + [rng.normal(size=200)]
    )
    return designs


def _near_parallel(ratio, n=2000):
    """[1, 1 + eps * u] with sigma_min at ratio x pivoted QR's rank tolerance."""
    u = np.random.default_rng(5).normal(size=n)
    u -= u.mean()

    def smallest(eps):
        design = np.column_stack([np.ones(n), 1.0 + eps * u])
        scaled = design / np.max(np.abs(design), axis=0)
        tol = np.linalg.norm(scaled, axis=0).max() * n * np.finfo(float).eps
        return np.linalg.svd(scaled, compute_uv=False)[-1] / tol

    eps = 1e-6 * ratio / smallest(1e-6)  # sigma_min is linear in a small eps
    return np.column_stack([np.ones(n), 1.0 + eps * u])


class TestRankVerdict:
    """_check_rank's verdict, a matrix_rank screen then pivoted QR, against pivoted QR alone."""

    @pytest.mark.parametrize("name, design", list(_verdict_designs().items()))
    def test_verdict_and_names_agree_with_pivoted_qr(self, name, design):
        rank, pivots = _qr_rank(design)
        full_rank = name.startswith(("scale", "huge"))  # the others are planted
        assert (rank == design.shape[1]) == full_rank
        if full_rank:
            _check_rank(design, None)
            return
        expected = sorted(int(c) for c in pivots[rank:])
        with pytest.raises(DataError) as err:
            _check_rank(design, None)
        assert str(err.value) == f"design is rank deficient; dependent column indices: {expected}"

    @pytest.mark.parametrize("ratio", [1.2, 0.85, 0.6])
    def test_near_threshold_verdict_is_pivoted_qr(self, ratio):
        # sigma_min at 1.2 x QR's tolerance lies below matrix_rank's own
        # (sigma_max / |R_00| = sqrt(2) here), and at 0.85 below QR's while
        # |R_11| stays above it: both fail the screen, and QR finds them
        # full-rank; at 0.6 QR finds column 1 dependent
        design = _near_parallel(ratio)
        scaled = design / np.max(np.abs(design), axis=0)
        sigma = np.linalg.svd(scaled, compute_uv=False)
        r_00 = np.linalg.norm(scaled, axis=0).max()
        assert sigma[-1] / (r_00 * max(design.shape) * np.finfo(float).eps) == pytest.approx(ratio, rel=1e-3)
        assert sigma[0] / r_00 == pytest.approx(np.sqrt(2.0), rel=1e-6)
        rank, pivots = _qr_rank(design)
        assert rank == (2 if ratio > 0.8 else 1)
        if rank == 2:
            _check_rank(design, None)
            return
        with pytest.raises(DataError, match=r"dependent column indices: \[1\]$"):
            _check_rank(design, None)


class TestPredictProbs:
    def test_zero_coefficients_uniform(self):
        rng = np.random.default_rng(0)
        design, response = _simulate_logit(rng, np.zeros((2, 2)), 60)
        model = fit_mnlogit(np.ones((60, 1)), response)
        zero_model = model
        zero_model.coefficients[:] = 0.0
        probs = predict_probs(zero_model, np.array([[1.0]]))
        assert np.allclose(probs, 1.0 / 3.0)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(2)
        beta = rng.normal(size=(2, 3))
        design, response = _simulate_logit(rng, beta, 50)
        model = fit_mnlogit(design, response)
        probs = predict_probs(model, design)
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)
        assert (probs > 0).all()

    def test_training_probabilities_average_to_frequencies(self):
        # with an intercept, the score equations force fitted probabilities
        # to average to the empirical class frequencies
        rng = np.random.default_rng(3)
        beta = np.array([[0.4, -0.6], [-0.3, 0.8]])
        design, response = _simulate_logit(rng, beta, 400)
        model = fit_mnlogit(design, response)
        probs = predict_probs(model, design)
        emp = np.bincount(response, minlength=4)[1:] / 400
        assert np.max(np.abs(probs.mean(axis=0) - emp)) < 1e-7

    def test_dimension_mismatch_rejected(self):
        rng = np.random.default_rng(1)
        design, response = _simulate_logit(rng, np.array([[0.2, 0.1]]), 50)
        model = fit_mnlogit(design, response)
        with pytest.raises(DataError, match="columns"):
            predict_probs(model, np.ones((3, 5)))


class TestLabelPermutationInvariance:
    def test_fit_invariant_up_to_relabeling(self):
        # swapping the two non-reference states permutes the fitted
        # probabilities accordingly
        rng = np.random.default_rng(9)
        beta = np.array([[0.4, -0.2], [-0.5, 0.7]])
        design, response = _simulate_logit(rng, beta, 500)
        model = fit_mnlogit(design, response)
        swapped = response.copy()
        swapped[response == 2] = 3
        swapped[response == 3] = 2
        model_swapped = fit_mnlogit(design, swapped)
        p_orig = predict_probs(model, design)
        p_swap = predict_probs(model_swapped, design)
        assert np.max(np.abs(p_orig[:, [0, 2, 1]] - p_swap)) < 1e-7
