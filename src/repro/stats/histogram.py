"""Fixed-edge histograms.

The KLD detector of the paper (Section VII-D) requires that the *same* bin
edges — derived once from the full training matrix ``X`` — be reused when
histogramming each training week ``X_i`` and each new candidate week.
:class:`FixedEdgeHistogram` encapsulates that contract.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError, NonFiniteInputError


def _require_finite(arr: np.ndarray, what: str) -> None:
    """Reject NaN/inf early with a typed error.

    A NaN reaching ``np.min`` or the bin search does not raise — it
    poisons the edges and every downstream probability/KLD score turns
    NaN, silently disabling detection.  Failing loudly here lets the
    degraded-mode service skip the consumer with an event instead.
    """
    if not np.all(np.isfinite(arr)):
        bad = int(np.count_nonzero(~np.isfinite(arr)))
        raise NonFiniteInputError(
            f"{what} requires finite values; got {bad} NaN/inf of "
            f"{arr.size}"
        )


def histogram_edges(values: np.ndarray, bins: int) -> np.ndarray:
    """Compute ``bins + 1`` equal-width bin edges spanning ``values``.

    The edges span ``[min(values), max(values)]``.  If all values are equal,
    a degenerate-but-usable interval of width 1 centred on the value is
    returned so downstream probability computations stay well-defined.
    """
    if bins < 1:
        raise ConfigurationError(f"bins must be >= 1, got {bins}")
    arr = np.asarray(values, dtype=float).ravel()
    if arr.size == 0:
        raise ConfigurationError("cannot compute histogram edges of empty data")
    _require_finite(arr, "histogram_edges")
    lo = float(np.min(arr))
    hi = float(np.max(arr))
    if lo == hi:
        lo -= 0.5
        hi += 0.5
    edges = np.linspace(lo, hi, bins + 1)
    if not np.all(np.diff(edges) > 0):
        # The span is too narrow to subdivide in float64 (e.g. denormal
        # data); widen to a unit interval around the data instead.
        edges = np.linspace(lo - 0.5, hi + 0.5, bins + 1)
    return edges


def binned_counts(rows: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Count each row of a ``(rows, n)`` matrix into fixed-edge bins.

    Returns ``(rows, bins)`` integer counts from one ``searchsorted`` and
    one ``bincount`` over the whole matrix.  Bins are half-open
    ``[e_j, e_{j+1})`` except the last, which also holds its upper edge,
    so on values inside the edge range the counts equal
    ``np.histogram``'s.  Values outside the range land in the first or
    last bin, exactly as if clipped to the range first.  Callers reject
    NaN before counting.
    """
    values = np.asarray(rows, dtype=float)
    if values.ndim != 2:
        raise ConfigurationError(
            f"rows must be a 2-D (rows, n) matrix, got shape {values.shape}"
        )
    edges = np.asarray(edges, dtype=float)
    if edges.ndim != 1 or edges.size < 2:
        raise ConfigurationError("edges must be a 1-D array of >= 2 values")
    if (edges[1:] < edges[:-1]).any():
        raise ConfigurationError("edges must increase monotonically")
    n_rows, bins = values.shape[0], edges.size - 1
    # Searching the interior edges only maps everything below e_1 to bin
    # 0 and everything at or above e_{bins-1} to the last bin.
    index = np.searchsorted(edges[1:-1], values, side="right")
    index += bins * np.arange(n_rows)[:, np.newaxis]
    return np.bincount(index.ravel(), minlength=n_rows * bins).reshape(
        n_rows, bins
    )


def relative_frequencies(values: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Histogram ``values`` against ``edges``, normalised to sum to 1.

    Values that fall outside the edge range are clipped into the first or
    last bin: the paper compares a new (possibly attacked) week against
    edges derived from training data, and attacked readings may exceed the
    historical range.  Dropping them would hide exactly the anomalies the
    detector is looking for.
    """
    arr = np.asarray(values, dtype=float).ravel()
    return _row_frequencies(arr[np.newaxis, :], edges)[0]


def _row_frequencies(rows: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """:func:`relative_frequencies` of every row of a ``(rows, n)`` matrix.

    Row ``i`` of the result is bit-identical to
    ``relative_frequencies(rows[i], edges)``: the counts are exact
    integers, and each row is divided by its own integer total.
    """
    matrix = np.asarray(rows, dtype=float)
    if matrix.ndim == 2 and matrix.shape[1] == 0:
        raise ConfigurationError("cannot histogram empty data")
    _require_finite(matrix, "relative_frequencies")
    counts = binned_counts(matrix, edges)
    return counts / counts.sum(axis=1, keepdims=True)


@dataclass(frozen=True)
class FixedEdgeHistogram:
    """A histogram whose bin edges are frozen at construction time.

    Parameters
    ----------
    edges:
        Monotonically increasing array of ``bins + 1`` edges.
    """

    edges: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        edges = np.asarray(self.edges, dtype=float)
        if edges.ndim != 1 or edges.size < 2:
            raise ConfigurationError("edges must be a 1-D array of >= 2 values")
        if not np.all(np.diff(edges) > 0):
            raise ConfigurationError("edges must be strictly increasing")
        object.__setattr__(self, "edges", edges)

    @classmethod
    def from_data(cls, values: np.ndarray, bins: int) -> "FixedEdgeHistogram":
        """Build a histogram with equal-width edges spanning ``values``."""
        return cls(histogram_edges(values, bins))

    @classmethod
    def from_quantiles(
        cls, values: np.ndarray, bins: int
    ) -> "FixedEdgeHistogram":
        """Build a histogram with equal-mass (quantile) edges.

        Each bin holds ~the same share of the reference data, so the
        reference distribution is near-uniform and the KLD statistic
        spends its resolution where the data actually lives.  Duplicate
        quantiles (heavy ties) are nudged apart to keep edges strictly
        increasing.
        """
        if bins < 1:
            raise ConfigurationError(f"bins must be >= 1, got {bins}")
        arr = np.asarray(values, dtype=float).ravel()
        if arr.size == 0:
            raise ConfigurationError("cannot compute quantile edges of empty data")
        _require_finite(arr, "from_quantiles")
        edges = np.quantile(arr, np.linspace(0.0, 1.0, bins + 1))
        # Enforce strict monotonicity in the presence of ties.
        for i in range(1, edges.size):
            if edges[i] <= edges[i - 1]:
                edges[i] = np.nextafter(edges[i - 1], np.inf)
        if edges[-1] <= edges[0]:
            edges[-1] = edges[0] + 1.0
        return cls(edges)

    @property
    def bins(self) -> int:
        """Number of bins."""
        return self.edges.size - 1

    def probabilities(self, values: np.ndarray) -> np.ndarray:
        """Relative frequency of ``values`` in each bin (sums to 1)."""
        return relative_frequencies(values, self.edges)

    def row_probabilities(self, rows: np.ndarray) -> np.ndarray:
        """Relative frequencies of each row of a ``(rows, n)`` matrix.

        Row ``i`` is bit-identical to ``probabilities(rows[i])``.
        """
        return _row_frequencies(rows, self.edges)

    def counts(self, values: np.ndarray) -> np.ndarray:
        """Raw (clipped) counts of ``values`` in each bin."""
        arr = np.asarray(values, dtype=float).ravel()
        _require_finite(arr, "counts")
        return binned_counts(arr[np.newaxis, :], self.edges)[0]
