"""Panel encoding, transition counting, series transforms, and CSV reading."""

import csv
import io
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from markovmix.data import (
    DENSE_CODES_PER_STEP,
    CovariateMatrix,
    _read_table,
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

    def test_matches_loop_count(self):
        rng = np.random.default_rng(1)
        panel = encode_sequences([rng.integers(1, 4, size=80).tolist(),
                                  rng.integers(1, 3, size=80).tolist()])
        for k in range(2):
            for j in range(2):
                expected = np.zeros((panel.alphabet_sizes[k], panel.alphabet_sizes[j]), dtype=int)
                for t in range(1, panel.n_obs):
                    expected[panel.states[t - 1, k] - 1, panel.states[t, j] - 1] += 1
                counts = count_transitions(panel, k, j).counts
                assert counts.dtype == expected.dtype
                assert np.array_equal(counts, expected)


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

    @pytest.mark.parametrize(
        "dense, chains, states, length",
        [
            # at most 3**4 codes, against at least 21 steps
            (True, (1, 3), 3, (22, 120)),
            # at least 2**6 codes, against at most 15 steps
            (False, (5, 6), 5, (2, 16)),
        ],
        ids=["bincount", "unique"],
    )
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_both_counting_paths_bitwise_match_unique_rows(
        self, data, dense, chains, states, length
    ):
        s = data.draw(st.integers(*chains))
        n = data.draw(st.integers(*length))
        columns = []
        for _ in range(s):
            m = data.draw(st.integers(2, states))
            col = data.draw(st.lists(st.integers(1, m), min_size=n, max_size=n))
            if len(set(col)) < 2:
                col[:2] = [1, 2]
            columns.append(col)
        panel = encode_sequences(columns)
        for j in range(s):
            n_codes = math.prod(panel.alphabet_sizes) * panel.alphabet_sizes[j]
            assert (n_codes <= DENSE_CODES_PER_STEP * (n - 1)) == dense
            for got, expected in zip(transition_patterns(panel, j), _unique_steps(panel, j)):
                assert got.dtype == expected.dtype
                assert got.shape == expected.shape
                assert got.tobytes() == expected.tobytes()

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

    @pytest.mark.parametrize("lower_q, upper_q", [(0.9, 0.1), (0.0, 0.5), (0.5, 1.0)])
    def test_bad_quantiles_are_not_a_data_error(self, lower_q, upper_q):
        # the quantiles are the caller's arguments, not a property of the series
        with pytest.raises(ValueError, match="need 0 < lower_q < upper_q < 1") as exc:
            discretize_quantiles(np.arange(1.0, 9.0), lower_q=lower_q, upper_q=upper_q)
        assert not isinstance(exc.value, DataError)

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

    def test_header_width_must_match_rows(self, tmp_path):
        path = tmp_path / "panel.csv"
        path.write_text("date,s1,s2,s3\n2020-01,1,2\n2020-02,2,1\n")
        with pytest.raises(DataError, match="row 1 has 3 cells, expected 4"):
            read_panel_csv(path, has_header=True, time_col="s3")

    @pytest.mark.parametrize(
        "time_col",
        [0, "0", -3, "-3", np.int64(0)],
        ids=["int", "digits", "negative-int", "negative-digits", "numpy-int"],
    )
    def test_time_col_index(self, tmp_path, time_col):
        path = tmp_path / "panel.csv"
        path.write_text("t1,a,x\nt2,b,y\nt3,a,y\n")
        panel = read_panel_csv(path, time_col=time_col)
        assert panel.time_index == ["t1", "t2", "t3"]
        assert panel.labels == [["a", "b"], ["x", "y"]]

    @pytest.mark.parametrize("time_col", [3, "-4"])
    def test_time_col_index_out_of_range(self, tmp_path, time_col):
        path = tmp_path / "panel.csv"
        path.write_text("t1,a,x\nt2,b,y\n")
        with pytest.raises(DataError, match=f"column {time_col} out of range for 3 column"):
            read_panel_csv(path, time_col=time_col)

    def test_covariate_length_must_match(self):
        panel = encode_sequences([[1, 2, 1], [2, 1, 2]])
        cov = CovariateMatrix(np.zeros((5, 1)), ["x"])
        from markovmix.mnlogit import build_design

        with pytest.raises(DataError, match="rows"):
            build_design(panel, 0, 0, cov)


# The reading algorithm the package used before it had one shared reader,
# kept as an oracle: csv rows, blank rows dropped, each cell stripped and
# coded one at a time.
def _oracle_rows(path, has_header):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [row for row in csv.reader(fh) if row and any(c.strip() for c in row)]
    return (rows[1:], rows[0]) if has_header else (rows, None)


def _oracle_panel(path, has_header, time_col):
    rows, header = _oracle_rows(path, has_header)
    columns = [[] for _ in rows[0]]
    for row in rows:
        for c, cell in enumerate(row):
            columns[c].append(cell.strip())
    time_index = None
    if time_col is not None:
        # header names were not stripped then; they are now
        names = [name.strip() for name in header or []]
        time_index = columns.pop(time_col if isinstance(time_col, int) else names.index(time_col))
    if not columns:
        raise DataError("no columns supplied")
    states = np.empty((len(rows), len(columns)), dtype=int)
    labels = []
    for j, col in enumerate(columns):
        mapping = {}
        for t, value in enumerate(col):
            states[t, j] = mapping.setdefault(value, len(mapping) + 1)
        if len(mapping) < 2:
            raise DataError(f"column {j} is constant")
        labels.append(list(mapping))
    return states, labels, time_index


def _oracle_covariates(path):
    rows, header = _oracle_rows(path, True)
    values = np.empty((len(rows), len(header)))
    for r, row in enumerate(rows):
        for c, cell in enumerate(row):
            values[r, c] = float(cell.strip())
    return values, [name.strip() for name in header]  # names were not stripped then


_PAD = st.sampled_from(["", " ", "  ", "\t"])
_BLANK_LINES = st.lists(st.sampled_from(["", "   ", " , ", ",,"]), max_size=2)


def _csv_text(data, table, quote_all=False):
    """CSV text of a table, padded cells and blank lines drawn in between."""
    buffer = io.StringIO()
    writer = csv.writer(
        buffer, lineterminator="\n", quoting=csv.QUOTE_ALL if quote_all else csv.QUOTE_MINIMAL
    )
    lines = []
    for row in table:
        lines.extend(data.draw(_BLANK_LINES))
        buffer.seek(0)
        buffer.truncate()
        writer.writerow([data.draw(_PAD) + cell + data.draw(_PAD) for cell in row])
        lines.append(buffer.getvalue().rstrip("\n"))
    return "\n".join(lines) + "\n"


def _write(text):
    handle = tempfile.NamedTemporaryFile(
        "w", suffix=".csv", encoding="utf-8", newline="", delete=False
    )
    with handle:
        handle.write(text)
    return Path(handle.name)


class TestReaderMatchesCellOracle:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_panel(self, data):
        ncol = data.draw(st.integers(1, 4))
        n = data.draw(st.integers(2, 12))
        labels = st.sampled_from(["a", "b", "1", "2", "x,y", "p q", "\u00e9", '"q"'])
        table = [[data.draw(labels) for _ in range(ncol)] for _ in range(n)]
        has_header = data.draw(st.booleans())
        if has_header:
            table.insert(0, [f"c{c}" if c else "t,0" for c in range(ncol)])
        time_col = None
        if ncol > 1 and data.draw(st.booleans()):
            time_col = data.draw(st.integers(0, ncol - 1))
            if has_header and data.draw(st.booleans()):
                time_col = table[0][time_col]
        path = _write(_csv_text(data, table))
        try:
            try:
                expected = _oracle_panel(path, has_header, time_col)
            except DataError:
                with pytest.raises(DataError):
                    read_panel_csv(path, has_header=has_header, time_col=time_col)
                return
            panel = read_panel_csv(path, has_header=has_header, time_col=time_col)
        finally:
            path.unlink()
        states, labels, time_index = expected
        assert np.array_equal(panel.states, states)
        assert panel.labels == labels
        assert panel.time_index == time_index
        assert time_index is None or type(panel.time_index) is list

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_covariates(self, data):
        ncol = data.draw(st.integers(1, 3))
        n = data.draw(st.integers(1, 10))
        numbers = st.floats(allow_nan=False, allow_infinity=False).map(repr)
        table = [["x,0" if c == 0 else f"x{c}" for c in range(ncol)]]
        table += [[data.draw(numbers) for _ in range(ncol)] for _ in range(n)]
        path = _write(_csv_text(data, table, quote_all=data.draw(st.booleans())))
        try:
            cov = read_covariates_csv(path)
            values, header = _oracle_covariates(path)
        finally:
            path.unlink()
        assert np.array_equal(cov.values, values)
        assert cov.column_names == header


_READER_CASES = [
    # (id, text, has_header, header, columns)
    ("blank-lines-skipped", "a,b\n\n   \nc,d\n", False, None, [("a", "c"), ("b", "d")]),
    ("whitespace-line-of-another-width", "a,b\n \t , ,  \nc,d\n", False, None,
     [("a", "c"), ("b", "d")]),
    ("commas-line-of-equal-width", "a,b,c\n,,\nd,e,f\n", False, None,
     [("a", "d"), ("b", "e"), ("c", "f")]),
    ("commas-line-of-another-width", "a,b\n,,\nc,d\n", False, None, [("a", "c"), ("b", "d")]),
    ("blank-first-row", " , \nx,y\na,b\n", True, ["x", "y"], [("a",), ("b",)]),
    ("trailing-blank-lines", "x,y\na,b\nc,d\n\n\n  \n", True, ["x", "y"],
     [("a", "c"), ("b", "d")]),
    ("crlf", "x,y\r\na,b\r\n\r\nc,d\r\n", True, ["x", "y"], [("a", "c"), ("b", "d")]),
    ("cells-stripped", " x ,\ty\n a , b \n", True, ["x", "y"], [("a",), ("b",)]),
    ("one-column-blank-line", "a\n \nb\n", False, None, [("a", "b")]),
]

_READER_FAULTS = [
    # (id, text, has_header, message after "<path>: ")
    ("ragged-row-after-blank-lines", "a,b\n\n\nc\n", False, "row 2 has 1 cells, expected 2"),
    ("ragged-row-with-header", "x,y\n\na,b\n \nc\n", True, "row 2 has 1 cells, expected 2"),
    ("header-wider-than-rows", "x,y,z\na,b\n", True, "row 1 has 2 cells, expected 3"),
    ("header-narrower-than-rows", "x\na,b\n", True, "row 1 has 2 cells, expected 1"),
    ("ragged-before-missing", "a,b\n,c\nd\n", False, "row 3 has 1 cells, expected 2"),
    ("missing-cell", "a,b\nc, \n", False, "missing cell at row 2, column 2"),
    ("missing-cell-after-blank", "x,y\n\na,b\n,d\n", True, "missing cell at row 2, column 1"),
    ("missing-cell-column-order", "a,b\nc,\n,d\n", False, "missing cell at row 3, column 1"),
    ("missing-header-cell", " ,y\na,b\n", True, "missing cell at the header row, column 1"),
    ("quoted-blank-cell", 'a,b\n" ",c\n', False, "missing cell at row 2, column 1"),
    ("crlf-missing-cell", "a,b\r\n,d\r\n", False, "missing cell at row 2, column 1"),
    ("empty-file", "", False, "no data rows"),
    ("blank-lines-only", "\n , \n,,\n", False, "no data rows"),
    ("header-only", "x,y\n\n\n", True, "no data rows"),
]


class TestReaderPinned:
    """Exact results and error texts of the one CSV reader on awkward tables."""

    @pytest.mark.parametrize(
        "text, has_header, header, columns",
        [case[1:] for case in _READER_CASES], ids=[case[0] for case in _READER_CASES],
    )
    def test_result(self, tmp_path, text, has_header, header, columns):
        path = tmp_path / "table.csv"
        path.write_bytes(text.encode())
        assert _read_table(path, has_header) == (header, columns)

    @pytest.mark.parametrize(
        "text, has_header, message",
        [case[1:] for case in _READER_FAULTS], ids=[case[0] for case in _READER_FAULTS],
    )
    def test_fault(self, tmp_path, text, has_header, message):
        path = tmp_path / "table.csv"
        path.write_bytes(text.encode())
        with pytest.raises(DataError) as err:
            _read_table(path, has_header)
        assert str(err.value) == f"{path}: {message}"
