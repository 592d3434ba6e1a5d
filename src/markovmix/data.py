"""Categorical panels, empirical transition estimation, and series transforms.

Panels hold ``s`` aligned integer-coded sequences; states are coded
1..m_j per column.  Chain indices in the API are 0-based (Python
convention); state labels stay 1-based because they are data, not
indices.

Panel and covariate CSVs (and the ``discretize`` command's series) go
through one reader: cells are stripped, blank rows skipped, and a ragged
row, an empty cell, a non-UTF-8 file or a malformed CSV is a DataError.
A column is addressed by a 0-based index (an int or a digit string,
negative from the end) or by a header name.

Also provides the series transforms used by the stock-returns pipeline:
log returns, quantile discretization into three states, and a trailing
moving average.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .exceptions import DataError

# transition_patterns counts codes with np.bincount while the code space is
# at most this many codes per step; a bincount beat np.unique's sort up to
# about 16 (n = 200 to 20000), and 4 keeps the count array small
DENSE_CODES_PER_STEP = 4


@dataclass
class Panel:
    """Aligned categorical sequences, integer-coded 1..m_j per column.

    ``states`` is an (n, s) integer array.  ``labels[j][i]`` is the
    original label encoded as state ``i + 1`` in column ``j``; for
    panels built directly from integer states the labels are the states
    themselves.
    """

    states: np.ndarray
    alphabet_sizes: tuple[int, ...]
    labels: list[list] = field(default_factory=list)
    time_index: Optional[list] = None

    def __post_init__(self):
        self.states = np.asarray(self.states, dtype=int)
        if self.states.ndim != 2:
            raise DataError(f"panel states must be 2-D (n, s), got shape {self.states.shape}")
        n, s = self.states.shape
        if n < 2:
            raise DataError(f"panel needs at least 2 observations, got {n}")
        if len(self.alphabet_sizes) != s:
            raise DataError(
                f"alphabet_sizes has {len(self.alphabet_sizes)} entries for {s} columns"
            )
        for j, m in enumerate(self.alphabet_sizes):
            col = self.states[:, j]
            if col.min() < 1 or col.max() > m:
                raise DataError(
                    f"column {j}: states must lie in 1..{m}, "
                    f"found range [{col.min()}, {col.max()}]"
                )
            missing = (np.flatnonzero(np.bincount(col, minlength=m + 1)[1:] == 0) + 1).tolist()
            if missing:
                raise DataError(f"column {j}: states {missing} never occur; re-encode the column")
        if not self.labels:
            self.labels = [list(range(1, m + 1)) for m in self.alphabet_sizes]
        if self.time_index is not None and len(self.time_index) != n:
            raise DataError(
                f"time index length {len(self.time_index)} does not match panel length {n}"
            )

    @property
    def n_obs(self) -> int:
        return self.states.shape[0]

    @property
    def n_chains(self) -> int:
        return self.states.shape[1]

    def decode(self) -> list[list]:
        """Invert the encoding: original label columns, one list per chain."""
        return [
            [self.labels[j][state - 1] for state in self.states[:, j]]
            for j in range(self.n_chains)
        ]


def _check_state(state, n_states: int, what: str) -> None:
    """DataError unless ``state`` is one of the 1-based states 1..n_states."""
    if not 1 <= state <= n_states:
        raise DataError(f"{what} {state} outside 1..{n_states}")
    if not float(state).is_integer():
        raise DataError(f"{what} {state} is not an integer")


@dataclass
class CovariateMatrix:
    """Real-valued covariates aligned row-for-row with a panel."""

    values: np.ndarray
    column_names: list[str]

    def __post_init__(self):
        self.values = np.atleast_2d(np.asarray(self.values, dtype=float))
        if self.values.ndim != 2:
            raise DataError(f"covariates must be 2-D, got shape {self.values.shape}")
        if self.values.shape[0] == 1 and self.values.shape[1] > 1 and len(self.column_names) == 1:
            # accept a single series passed as a flat vector
            self.values = self.values.T
        if not np.isfinite(self.values).all():
            raise DataError("covariates contain non-finite entries")
        if len(self.column_names) != self.values.shape[1]:
            raise DataError(
                f"{len(self.column_names)} covariate names for "
                f"{self.values.shape[1]} columns"
            )

    @property
    def n_obs(self) -> int:
        return self.values.shape[0]

    @property
    def n_covariates(self) -> int:
        return self.values.shape[1]


@dataclass
class FrequencyMatrix:
    """Transition counts from states of one chain to states of another.

    ``counts[i1 - 1, i0 - 1]`` is the number of t with the source chain
    in state i1 at t-1 and the target chain in state i0 at t.
    """

    counts: np.ndarray
    from_chain: int
    to_chain: int

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=int)
        if self.counts.ndim != 2:
            raise DataError("frequency counts must be a matrix")
        if (self.counts < 0).any():
            raise DataError("frequency counts must be non-negative")


@dataclass
class TransitionMatrix:
    """Row-stochastic conditional probabilities between two chains.

    Rows condition on the source state (chain ``from_chain`` at t-1),
    columns give the destination state (chain ``to_chain`` at t).
    """

    probs: np.ndarray
    from_chain: int
    to_chain: int

    def __post_init__(self):
        self.probs = np.asarray(self.probs, dtype=float)
        if self.probs.ndim != 2:
            raise DataError("transition probs must be a matrix")
        if (self.probs < -1e-12).any() or (self.probs > 1 + 1e-12).any():
            raise DataError("transition probabilities must lie in [0, 1]")
        rowsums = self.probs.sum(axis=1)
        if not np.allclose(rowsums, 1.0, atol=1e-12, rtol=0.0):
            worst = float(np.max(np.abs(rowsums - 1.0)))
            raise DataError(f"transition rows must sum to 1; max deviation {worst:.3e}")


def encode_sequences(
    raw: Sequence[Sequence], time_index: Optional[list] = None
) -> Panel:
    """Integer-code raw label columns into a Panel.

    Labels map to 1..m_j in first-appearance order, so two identical
    columns always get identical encodings.  The original labels are
    retained on the returned panel (``panel.labels``) for decoding.
    """
    if not raw:
        raise DataError("no columns supplied")
    lengths = {len(col) for col in raw}
    if len(lengths) != 1:
        raise DataError(f"columns have unequal lengths {sorted(lengths)}")
    n = lengths.pop()
    if n < 2:
        raise DataError("columns need at least 2 observations")

    encoded = np.empty((n, len(raw)), dtype=int)
    labels: list[list] = []
    for j, col in enumerate(raw):
        codes = {label: code for code, label in enumerate(dict.fromkeys(col), start=1)}
        if len(codes) < 2:
            raise DataError(f"column {j} is constant; no transition structure to model")
        encoded[:, j] = [*map(codes.__getitem__, col)]
        labels.append(list(codes))

    sizes = tuple(len(lab) for lab in labels)
    return Panel(states=encoded, alphabet_sizes=sizes, labels=labels, time_index=time_index)


def count_transitions(panel: Panel, from_chain: int, to_chain: int) -> FrequencyMatrix:
    """Count lag-one transitions from one chain's states to another's.

    counts[i1-1, i0-1] = #{t : source chain at t-1 is i1 and target
    chain at t is i0}; the total count is n - 1.
    """
    _check_chain(panel, from_chain)
    _check_chain(panel, to_chain)
    m_from = panel.alphabet_sizes[from_chain]
    m_to = panel.alphabet_sizes[to_chain]
    src = panel.states[:-1, from_chain] - 1
    dst = panel.states[1:, to_chain] - 1
    counts = np.bincount(src * m_to + dst, minlength=m_from * m_to).reshape(m_from, m_to)
    return FrequencyMatrix(counts=counts, from_chain=from_chain, to_chain=to_chain)


def row_normalize(freq: FrequencyMatrix) -> TransitionMatrix:
    """Normalize transition counts row-wise into probabilities.

    Rows with no observations become uniform; this keeps every matrix
    row-stochastic and downstream likelihoods finite even when a source
    state is never the conditioning state.
    """
    counts = freq.counts.astype(float)
    totals = counts.sum(axis=1, keepdims=True)
    m_to = counts.shape[1]
    probs = np.where(totals > 0, counts / np.where(totals == 0, 1.0, totals), 1.0 / m_to)
    return TransitionMatrix(probs=probs, from_chain=freq.from_chain, to_chain=freq.to_chain)


def transition_matrix_grid(panel: Panel) -> list[list[TransitionMatrix]]:
    """Empirical transition matrices for every (target, source) chain pair.

    grid[j][k] conditions chain j's state at t on chain k's state at
    t-1 (rows index chain k states, columns chain j states).
    """
    s = panel.n_chains
    return [
        [row_normalize(count_transitions(panel, from_chain=k, to_chain=j)) for k in range(s)]
        for j in range(s)
    ]


def transition_patterns(panel: Panel, equation: int) -> tuple[np.ndarray, np.ndarray]:
    """Distinct (lagged states of every chain, next state of ``equation``) rows.

    Step t is the row (states[t, 0..s-1], states[t+1, equation]).  Returns
    the distinct rows in lexicographic order, as ``np.unique(axis=0)``
    would, and how often each occurs (the counts sum to n - 1).  Each row
    is one mixed-radix int64 code.  While the code space holds at most
    ``DENSE_CODES_PER_STEP`` codes per step, ``np.bincount`` counts the
    codes and the rows are decoded from the nonzero ones; otherwise
    ``np.unique`` sorts the codes, and when the radix would pass 2**62 the
    codes so far are re-ranked, so any panel width works.
    """
    _check_chain(panel, equation)
    sizes = (*panel.alphabet_sizes, panel.alphabet_sizes[equation])
    if math.prod(sizes) <= DENSE_CODES_PER_STEP * (panel.n_obs - 1):
        place = np.cumprod((1, *sizes[:0:-1]))[::-1]  # mixed-radix place values
        lagged, after = panel.states[:-1] - 1, panel.states[1:, equation] - 1
        counts = np.bincount(lagged @ place[:-1] + after)
        codes = np.flatnonzero(counts)
        counts = counts[codes]
        rows = np.empty((len(codes), len(sizes)), dtype=panel.states.dtype)
        for c in reversed(range(len(sizes))):
            codes, rows[:, c] = np.divmod(codes, sizes[c])
        return rows + 1, counts
    steps = np.column_stack([panel.states[:-1], panel.states[1:, equation]])
    codes = np.zeros(len(steps), dtype=np.int64)
    radix = 1
    for column, m in zip(steps.T, sizes):
        if radix * m > 2**62:
            # order-preserving ranks fit in far fewer digits than the codes
            codes = np.unique(codes, return_inverse=True)[1].astype(np.int64)
            radix = int(codes.max()) + 1
        codes = codes * m + (column - 1)
        radix *= m
    _, first, counts = np.unique(codes, return_index=True, return_counts=True)
    return steps[first], counts


def empirical_distribution(panel: Panel, chain: int) -> np.ndarray:
    """Relative frequency of each state of one chain over t = 1..n."""
    _check_chain(panel, chain)
    m = panel.alphabet_sizes[chain]
    counts = np.bincount(panel.states[:, chain] - 1, minlength=m).astype(float)
    return counts / counts.sum()


def log_returns(prices: Sequence[float]) -> np.ndarray:
    """Log returns in percent: 100 * ln(P_t / P_{t-1}); length n - 1."""
    prices = np.asarray(prices, dtype=float)
    if prices.ndim != 1 or len(prices) < 2:
        raise DataError("price series must be 1-D with at least 2 observations")
    if (prices <= 0).any():
        bad = int(np.argmax(prices <= 0))
        raise DataError(f"prices must be positive; found {prices[bad]} at position {bad}")
    return 100.0 * np.diff(np.log(prices))


def discretize_quantiles(
    series: Sequence[float], lower_q: float = 0.25, upper_q: float = 0.75
) -> np.ndarray:
    """Three-state discretization against estimated quantiles.

    State 1 for values at or below the lower quantile, state 3 for
    values at or above the upper quantile, state 2 strictly between.
    Quantiles use linear interpolation of order statistics (numpy's
    default, the "type 7" convention), which pins down boundary cases.
    """
    _check_quantiles(lower_q, upper_q)
    series = np.asarray(series, dtype=float)
    if series.ndim != 1 or len(series) < 4:
        raise DataError("series must be 1-D with at least 4 observations")
    if not np.isfinite(series).all():
        raise DataError("series contains non-finite entries")
    q_low, q_high = np.quantile(series, [lower_q, upper_q], method="linear")
    if q_low == q_high:
        raise DataError(
            f"quantiles {lower_q} and {upper_q} coincide at {q_low}; "
            "discretization is meaningless for this series"
        )
    states = np.full(len(series), 2, dtype=int)
    states[series <= q_low] = 1
    states[series >= q_high] = 3
    return states


def _check_quantiles(lower_q: float, upper_q: float) -> None:
    """ValueError unless 0 < lower_q < upper_q < 1: option values, not a property of the series."""
    if not 0 < lower_q < upper_q < 1:
        raise ValueError(f"need 0 < lower_q < upper_q < 1, got ({lower_q}, {upper_q})")


def moving_average(series: Sequence[float], window: int = 5) -> np.ndarray:
    """Trailing mean of the last ``window`` values; length n - window + 1.

    Trailing (causal) rather than centered: the smoothed value at t uses
    observations t - window + 1 .. t only.
    """
    series = np.asarray(series, dtype=float)
    if window < 1:
        raise DataError(f"window must be >= 1, got {window}")
    if window > len(series):
        raise DataError(f"window {window} exceeds series length {len(series)}")
    cumsum = np.concatenate(([0.0], np.cumsum(series)))
    return (cumsum[window:] - cumsum[:-window]) / window


def read_panel_csv(
    path, has_header: bool = False, time_col: Optional[str | int] = None
) -> Panel:
    """Read a wide-format panel CSV: one column per sequence.

    Cells may hold arbitrary category labels (integers or strings);
    they are integer-coded in first-appearance order.  Missing cells
    and ragged rows are an error.  ``time_col`` indexes (an int or a
    digit string, 0-based, negative from the end) or names a column to
    use as the time axis instead of a sequence.
    """
    header, columns = _read_table(path, has_header)
    time_index = None
    if time_col is not None:
        time_index = list(columns.pop(_column_index(time_col, header, len(columns), path)))
    return encode_sequences(columns, time_index=time_index)


def read_covariates_csv(path) -> CovariateMatrix:
    """Read a covariate CSV (header row required, numeric cells)."""
    header, columns = _read_table(path, has_header=True)
    return CovariateMatrix(_numeric(path, columns, range(len(columns))), column_names=header)


def _read_table(path, has_header: bool) -> tuple[Optional[list[str]], list[tuple[str, ...]]]:
    """One pass over a CSV: its header (or None) and its data as column tuples.

    Cells are stripped, a column at a time, and blank rows skipped.  Every
    row, the header included, must be as wide as the first, and no cell
    may be empty.  Data rows are numbered from 1, skipping blank rows.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            table = list(csv.reader(fh))
    except UnicodeDecodeError as err:
        raise DataError(f"{path}: not UTF-8 text ({err})") from None
    except csv.Error as err:
        raise DataError(f"{path}: malformed CSV ({err})") from None

    def row_name(r: int) -> str:
        r += not has_header
        return f"row {r}" if r else "the header row"

    columns = [tuple(map(str.strip, column)) for column in zip(*table)]
    ragged = not columns or set(map(len, table)) != {len(columns)}
    if ragged or len(table) <= has_header or any("" in column for column in columns):
        # a blank row (empty, or all empty cells) fails a check above: only now drop them
        table = [row for row in table if any(map(str.strip, row))]
        if len(table) <= has_header:
            raise DataError(f"{path}: no data rows")
        ncol = len(table[0])
        if len(set(map(len, table))) > 1:
            r = next(r for r, row in enumerate(table) if len(row) != ncol)
            raise DataError(f"{path}: {row_name(r)} has {len(table[r])} cells, expected {ncol}")
        columns = [tuple(map(str.strip, column)) for column in zip(*table)]
        for c, column in enumerate(columns):
            if "" in column:
                r = column.index("")
                raise DataError(f"{path}: missing cell at {row_name(r)}, column {c + 1}")
    if not has_header:
        return None, columns
    return [column[0] for column in columns], [column[1:] for column in columns]


def _column_index(spec: str | int, header: Optional[list[str]], ncol: int, path) -> int:
    """0-based column of ``spec``: an int or digit string indexes, anything else names."""
    if str(spec).removeprefix("-").isdecimal():
        if not -ncol <= int(spec) < ncol:
            raise DataError(f"{path}: column {spec} out of range for {ncol} column(s)")
        return int(spec) % ncol
    if header is None:
        raise DataError(f"{path}: no column named {spec!r}; the file has no header")
    if spec not in header:
        raise DataError(f"{path}: no column named {spec!r}; header is {header}")
    return header.index(spec)


def _numeric(path, columns: list[tuple[str, ...]], which) -> np.ndarray:
    """Columns ``which`` of a table as an (n, len(which)) float array."""
    try:
        return np.array([columns[c] for c in which], dtype=float).T.copy()
    except ValueError:
        # name the first bad cell
        for c in which:
            for r, cell in enumerate(columns[c]):
                try:
                    float(cell)
                except ValueError:
                    raise DataError(
                        f"{path}: non-numeric value {cell!r} at row {r + 1}, column {c + 1}"
                    ) from None
        raise


def _check_chain(chains, chain: int) -> None:
    """DataError unless ``chain`` indexes a chain of ``chains``, a panel or a fit."""
    if not 0 <= chain < chains.n_chains:
        raise DataError(f"chain index {chain} out of range 0..{chains.n_chains - 1}")
