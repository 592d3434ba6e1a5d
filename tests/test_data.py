"""Panel encoding, transition counting, and series transforms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from markovmix.data import (
    CovariateMatrix,
    count_transitions,
    discretize_quantiles,
    empirical_distribution,
    encode_sequences,
    log_returns,
    moving_average,
    read_covariates_csv,
    read_panel_csv,
    row_normalize,
    transition_matrix_grid,
    transition_patterns,
)
from markovmix.exceptions import DataError


class TestEncodeSequences:
    def test_first_appearance_order(self):
        panel = encode_sequences([["a", "b", "a"]])
        assert panel.states[:, 0].tolist() == [1, 2, 1]
        assert panel.alphabet_sizes == (2,)
        assert panel.labels[0] == ["a", "b"]

    def test_identical_columns_identical_encodings(self):
        panel = encode_sequences([["x", "y", "z", "y"], ["x", "y", "z", "y"]])
        assert np.array_equal(panel.states[:, 0], panel.states[:, 1])

    def test_constant_column_rejected(self):
        with pytest.raises(DataError, match="constant"):
            encode_sequences([["x", "x", "x"]])

    def test_ragged_columns_rejected(self):
        with pytest.raises(DataError, match="unequal"):
            encode_sequences([[1, 2, 1], [1, 2]])

    def test_decode_round_trip(self):
        cols = [["r", "s", "r", "t"], [5, 5, 7, 5]]
        panel = encode_sequences(cols)
        assert panel.decode() == [list(c) for c in cols]


class TestCountTransitions:
    def test_alternating_pair(self):
        panel = encode_sequences([[1, 2, 1, 2], [1, 2, 1, 2]])
        freq = count_transitions(panel, from_chain=0, to_chain=1)
        assert freq.counts.tolist() == [[0, 2], [1, 0]]

    def test_n2_single_transition(self):
        panel = encode_sequences([[1, 2], [2, 1]])
        freq = count_transitions(panel, from_chain=0, to_chain=0)
        assert freq.counts.tolist() == [[0, 1], [0, 0]]
        assert freq.counts.sum() == 1

    def test_direction_matters(self):
        panel = encode_sequences([[1, 1, 2], [2, 1, 1]])
        ab = count_transitions(panel, from_chain=0, to_chain=1)
        ba = count_transitions(panel, from_chain=1, to_chain=0)
        assert not np.array_equal(ab.counts, ba.counts)

    def test_total_is_n_minus_1(self):
        rng = np.random.default_rng(0)
        panel = encode_sequences([rng.integers(1, 4, size=50).tolist(),
                                  rng.integers(1, 3, size=50).tolist()])
        for k in range(2):
            for j in range(2):
                assert count_transitions(panel, k, j).counts.sum() == 49


class TestRowNormalize:
    def test_basic(self):
        panel = encode_sequences([[1, 1, 2, 2, 1], [1, 2, 1, 2, 2]])
        freq = count_transitions(panel, 0, 1)
        tm = row_normalize(freq)
        assert np.allclose(tm.probs.sum(axis=1), 1.0, atol=1e-12)

    def test_values(self):
        from markovmix.data import FrequencyMatrix

        tm = row_normalize(FrequencyMatrix(np.array([[2, 2], [0, 4]]), 0, 0))
        assert tm.probs.tolist() == [[0.5, 0.5], [0.0, 1.0]]

    def test_zero_row_uniform(self):
        from markovmix.data import FrequencyMatrix

        tm = row_normalize(FrequencyMatrix(np.array([[0, 0], [1, 3]]), 0, 0))
        assert tm.probs.tolist() == [[0.5, 0.5], [0.25, 0.75]]

    def test_identity_counts(self):
        from markovmix.data import FrequencyMatrix

        tm = row_normalize(FrequencyMatrix(np.array([[5, 0], [0, 7]]), 0, 0))
        assert tm.probs.tolist() == [[1.0, 0.0], [0.0, 1.0]]

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(1, 3), min_size=8, max_size=40))
    def test_grid_row_stochastic(self, states):
        if len(set(states)) < 3:
            states = states + [1, 2, 3]
        other = states[::-1]
        panel = encode_sequences([states, other])
        for row in transition_matrix_grid(panel):
            for tm in row:
                assert np.allclose(tm.probs.sum(axis=1), 1.0, atol=1e-12)
                assert (tm.probs >= 0).all() and (tm.probs <= 1).all()


def _unique_steps(panel, equation):
    """np.unique oracle for transition_patterns."""
    steps = np.column_stack([panel.states[:-1], panel.states[1:, equation]])
    return np.unique(steps, axis=0, return_counts=True)


class TestTransitionPatterns:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_unique_rows(self, data):
        s = data.draw(st.integers(1, 4))
        n = data.draw(st.integers(2, 50))
        columns = []
        for _ in range(s):
            m = data.draw(st.integers(2, 5))
            col = data.draw(st.lists(st.integers(1, m), min_size=n, max_size=n))
            if len(set(col)) < 2:
                col[:2] = [1, 2]
            columns.append(col)
        panel = encode_sequences(columns)
        for j in range(s):
            patterns, counts = transition_patterns(panel, j)
            expected_patterns, expected_counts = _unique_steps(panel, j)
            assert np.array_equal(patterns, expected_patterns)
            assert np.array_equal(counts, expected_counts)
            assert counts.sum() == n - 1

    def test_wide_panel_reranks_codes(self):
        # 9**30 patterns overflow an int64 mixed-radix code
        rng = np.random.default_rng(30)
        panel = encode_sequences([rng.integers(1, 10, 400).tolist() for _ in range(30)])
        assert math.prod(panel.alphabet_sizes) > 2**62
        for j in (0, 17, 29):
            patterns, counts = transition_patterns(panel, j)
            expected_patterns, expected_counts = _unique_steps(panel, j)
            assert np.array_equal(patterns, expected_patterns)
            assert np.array_equal(counts, expected_counts)
            assert counts.sum() == panel.n_obs - 1

    def test_repeated_steps_counted(self):
        panel = encode_sequences([[1, 2, 1, 2, 1], [1, 1, 1, 1, 2]])
        patterns, counts = transition_patterns(panel, 1)
        # steps (lag of chain 0, lag of chain 1, next of chain 1):
        # (1,1,1) (2,1,1) (1,1,1) (2,1,2)
        assert patterns.tolist() == [[1, 1, 1], [2, 1, 1], [2, 1, 2]]
        assert counts.tolist() == [2, 1, 1]

    def test_bad_equation_rejected(self):
        panel = encode_sequences([[1, 2, 1], [2, 1, 2]])
        with pytest.raises(DataError, match="out of range"):
            transition_patterns(panel, 2)


class TestEmpiricalDistribution:
    def test_even_split(self):
        panel = encode_sequences([[1, 2, 1, 2], [1, 1, 1, 2]])
        assert empirical_distribution(panel, 0).tolist() == [0.5, 0.5]
        assert empirical_distribution(panel, 1).tolist() == [0.75, 0.25]

    def test_sums_to_one(self):
        rng = np.random.default_rng(3)
        panel = encode_sequences([rng.integers(1, 5, size=33).tolist(),
                                  rng.integers(1, 3, size=33).tolist()])
        for j in range(2):
            assert empirical_distribution(panel, j).sum() == pytest.approx(1.0, abs=1e-12)


class TestLogReturns:
    def test_flat_prices(self):
        assert log_returns([100.0, 100.0]).tolist() == [0.0]

    def test_ln_inverse(self):
        r = log_returns([100.0, 100.0 * np.exp(0.01)])
        assert r[0] == pytest.approx(1.0, abs=1e-12)

    def test_constant_series_all_zero(self):
        assert np.allclose(log_returns([5.0] * 10), 0.0)

    def test_nonpositive_price_rejected(self):
        with pytest.raises(DataError, match="positive"):
            log_returns([100.0, -1.0, 100.0])


class TestDiscretizeQuantiles:
    def test_one_to_eight(self):
        # quantiles of 1..8 at (0.25, 0.75) are 2.75 and 6.25 under linear
        # interpolation, so the case rule yields these states
        states = discretize_quantiles(np.arange(1.0, 9.0))
        assert states.tolist() == [1, 1, 2, 2, 2, 2, 3, 3]

    def test_degenerate_series_rejected(self):
        with pytest.raises(DataError, match="coincide"):
            discretize_quantiles(np.array([1.0, 1.0, 1.0, 1.0, 1.0, 9.9]))

    def test_large_sample_frequencies(self):
        rng = np.random.default_rng(42)
        states = discretize_quantiles(rng.normal(size=100_000))
        freq = np.bincount(states, minlength=4)[1:] / 100_000
        assert np.abs(freq - [0.25, 0.5, 0.25]).max() < 0.01

    def test_uses_exactly_three_states(self):
        rng = np.random.default_rng(1)
        states = discretize_quantiles(rng.normal(size=200))
        assert set(states.tolist()) == {1, 2, 3}

    def test_boundary_inclusion(self):
        # quantiles of 0..4 are exactly 1.0 and 3.0; values equal to a
        # quantile land in the outer states (<= and >= in the case rule)
        states = discretize_quantiles(np.array([0.0, 1.0, 2.0, 3.0, 4.0]))
        assert states.tolist() == [1, 1, 2, 3, 3]


class TestMovingAverage:
    def test_constant(self):
        assert np.allclose(moving_average([3.0] * 7, 5), 3.0)

    def test_window_equals_length(self):
        assert moving_average([1, 2, 3, 4, 5], 5).tolist() == [3.0]

    def test_window_one_identity(self):
        series = [1.5, -2.0, 0.25]
        assert moving_average(series, 1).tolist() == series

    def test_trailing_not_centered(self):
        out = moving_average([0.0, 0.0, 3.0], 2)
        assert out.tolist() == [0.0, 1.5]

    def test_window_too_long(self):
        with pytest.raises(DataError, match="exceeds"):
            moving_average([1.0, 2.0], 5)


class TestCsvIngestion:
    def test_panel_round_trip(self, tmp_path):
        path = tmp_path / "panel.csv"
        path.write_text("a,x\nb,y\na,x\nb,y\n")
        panel = read_panel_csv(path)
        assert panel.n_chains == 2 and panel.n_obs == 4
        assert panel.labels[0] == ["a", "b"]

    def test_panel_header_and_time_col(self, tmp_path):
        path = tmp_path / "panel.csv"
        path.write_text("date,s1,s2\n2020-01,1,2\n2020-02,2,1\n2020-03,1,2\n")
        panel = read_panel_csv(path, has_header=True, time_col="date")
        assert panel.n_chains == 2
        assert panel.time_index == ["2020-01", "2020-02", "2020-03"]

    def test_missing_cell_rejected(self, tmp_path):
        path = tmp_path / "panel.csv"
        path.write_text("1,2\n,1\n2,2\n")
        with pytest.raises(DataError, match="missing cell"):
            read_panel_csv(path)

    def test_covariates_need_header(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("spread\n1.5\n-0.2\n0.3\n")
        cov = read_covariates_csv(path)
        assert cov.column_names == ["spread"]
        assert cov.values.shape == (3, 1)

    def test_covariates_non_numeric_rejected(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("spread\n1.5\noops\n")
        with pytest.raises(DataError, match="non-numeric"):
            read_covariates_csv(path)

    def test_covariate_length_must_match(self):
        panel = encode_sequences([[1, 2, 1], [2, 1, 2]])
        cov = CovariateMatrix(np.zeros((5, 1)), ["x"])
        from markovmix.mnlogit import build_design

        with pytest.raises(DataError, match="rows"):
            build_design(panel, 0, 0, cov)
