"""Unit tests for fixed-edge histograms."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.stats.histogram import (
    FixedEdgeHistogram,
    binned_counts,
    histogram_edges,
    relative_frequencies,
)


class TestHistogramEdges:
    def test_edges_span_data(self):
        edges = histogram_edges(np.array([1.0, 2.0, 5.0]), bins=4)
        assert edges[0] == 1.0
        assert edges[-1] == 5.0
        assert edges.size == 5

    def test_edges_equal_width(self):
        edges = histogram_edges(np.array([0.0, 10.0]), bins=5)
        widths = np.diff(edges)
        assert np.allclose(widths, 2.0)

    def test_constant_data_yields_usable_interval(self):
        edges = histogram_edges(np.full(10, 3.0), bins=3)
        assert edges[0] < 3.0 < edges[-1]

    def test_rejects_zero_bins(self):
        with pytest.raises(ConfigurationError):
            histogram_edges(np.array([1.0, 2.0]), bins=0)

    def test_rejects_empty_data(self):
        with pytest.raises(ConfigurationError):
            histogram_edges(np.array([]), bins=3)

    def test_matrix_input_flattened(self):
        edges = histogram_edges(np.array([[1.0, 2.0], [3.0, 4.0]]), bins=3)
        assert edges[0] == 1.0 and edges[-1] == 4.0


class TestRelativeFrequencies:
    def test_sums_to_one(self, rng):
        values = rng.uniform(0, 10, size=100)
        edges = histogram_edges(values, bins=7)
        probs = relative_frequencies(values, edges)
        assert probs.shape == (7,)
        assert np.isclose(probs.sum(), 1.0)

    def test_out_of_range_values_clipped_not_dropped(self):
        edges = np.array([0.0, 1.0, 2.0])
        probs = relative_frequencies(np.array([-5.0, 0.5, 10.0, 10.0]), edges)
        # -5 lands in the first bin; the two 10s land in the last.
        assert np.isclose(probs[0], 0.5)
        assert np.isclose(probs[1], 0.5)

    def test_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            relative_frequencies(np.array([]), np.array([0.0, 1.0]))


class TestFixedEdgeHistogram:
    def test_from_data_bins(self):
        hist = FixedEdgeHistogram.from_data(np.arange(100.0), bins=10)
        assert hist.bins == 10

    def test_probabilities_uniform_data(self):
        hist = FixedEdgeHistogram.from_data(np.arange(1000.0), bins=10)
        probs = hist.probabilities(np.arange(1000.0))
        assert np.allclose(probs, 0.1, atol=0.01)

    def test_same_edges_reused_for_new_data(self):
        train = np.arange(100.0)
        hist = FixedEdgeHistogram.from_data(train, bins=5)
        shifted = hist.probabilities(train + 200.0)  # all above range
        assert np.isclose(shifted[-1], 1.0)

    def test_counts_total(self, rng):
        values = rng.uniform(0, 1, size=50)
        hist = FixedEdgeHistogram.from_data(values, bins=4)
        assert hist.counts(values).sum() == 50

    def test_rejects_non_monotone_edges(self):
        with pytest.raises(ConfigurationError):
            FixedEdgeHistogram(np.array([0.0, 2.0, 1.0]))

    def test_rejects_too_few_edges(self):
        with pytest.raises(ConfigurationError):
            FixedEdgeHistogram(np.array([1.0]))

    def test_frozen_edges_are_copies_of_input_semantics(self):
        edges = np.array([0.0, 1.0, 2.0])
        hist = FixedEdgeHistogram(edges)
        assert hist.bins == 2
        assert np.array_equal(hist.edges, edges)


class TestQuantileEdges:
    def test_equal_mass_bins(self, rng):
        values = rng.lognormal(0, 1, size=10_000)
        hist = FixedEdgeHistogram.from_quantiles(values, bins=8)
        probs = hist.probabilities(values)
        assert np.allclose(probs, 1.0 / 8.0, atol=0.01)

    def test_edges_strictly_increasing_with_ties(self):
        values = np.array([1.0] * 50 + [2.0] * 50)
        hist = FixedEdgeHistogram.from_quantiles(values, bins=5)
        assert np.all(np.diff(hist.edges) > 0)

    def test_constant_data_usable(self):
        hist = FixedEdgeHistogram.from_quantiles(np.full(20, 3.0), bins=4)
        probs = hist.probabilities(np.full(20, 3.0))
        assert np.isclose(probs.sum(), 1.0)

    def test_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            FixedEdgeHistogram.from_quantiles(np.array([]), bins=3)

    def test_rejects_zero_bins(self, rng):
        with pytest.raises(ConfigurationError):
            FixedEdgeHistogram.from_quantiles(rng.uniform(size=10), bins=0)


class TestNonFiniteHardening:
    """NaN/inf must fail loudly, not poison edges and probabilities."""

    def test_histogram_edges_rejects_nan(self):
        from repro.errors import NonFiniteInputError

        with pytest.raises(NonFiniteInputError):
            histogram_edges(np.array([1.0, np.nan, 2.0]), bins=4)

    def test_histogram_edges_rejects_inf(self):
        from repro.errors import NonFiniteInputError

        with pytest.raises(NonFiniteInputError):
            histogram_edges(np.array([1.0, np.inf]), bins=4)

    def test_relative_frequencies_rejects_nan(self):
        from repro.errors import NonFiniteInputError

        edges = histogram_edges(np.array([0.0, 1.0]), bins=2)
        with pytest.raises(NonFiniteInputError):
            relative_frequencies(np.array([0.5, np.nan]), edges)

    def test_from_quantiles_rejects_nan(self):
        from repro.errors import NonFiniteInputError

        with pytest.raises(NonFiniteInputError):
            FixedEdgeHistogram.from_quantiles(
                np.array([1.0, np.nan, 2.0]), bins=2
            )

    def test_counts_rejects_nan(self):
        from repro.errors import NonFiniteInputError

        hist = FixedEdgeHistogram.from_data(np.array([0.0, 1.0]), bins=2)
        with pytest.raises(NonFiniteInputError):
            hist.counts(np.array([np.nan]))

    def test_error_is_a_data_error(self):
        # Degraded-mode skip handling catches the DataError family.
        from repro.errors import DataError, NonFiniteInputError

        assert issubclass(NonFiniteInputError, DataError)


def _numpy_counts(rows, edges):
    """Per-row ``np.histogram`` of clipped values: the reference counts."""
    clipped = np.clip(rows, edges[0], edges[-1])
    return np.array([np.histogram(row, bins=edges)[0] for row in clipped])


def _kernel_cases():
    rng = np.random.default_rng(2016)
    edges = np.linspace(0.0, 2.0, 11)
    random = rng.gamma(2.0, 0.4, size=(6, 336))
    ties = rng.choice(np.array([0.1, 0.5, 0.5, 1.3]), size=(5, 336))
    zeros = np.zeros((3, 336))
    zeros[1, ::7] = 0.9
    on_edges = rng.choice(edges, size=(4, 336))
    on_edges[0, :] = edges[-1]
    on_edges[1, :11] = edges
    out_of_range = rng.uniform(-3.0, 5.0, size=(4, 336))
    constant = np.full((2, 336), 0.7)
    constant_edges = histogram_edges(constant, bins=10)
    return {
        "random": (random, histogram_edges(random, bins=10)),
        "heavy_ties": (ties, histogram_edges(ties, bins=10)),
        "zeros": (zeros, histogram_edges(zeros, bins=10)),
        "interior_and_last_edges": (on_edges, edges),
        "out_of_range": (out_of_range, edges),
        "constant": (constant, constant_edges),
        "single_row": (random[:1], edges),
        "mass_edges_with_ties": (
            ties, FixedEdgeHistogram.from_quantiles(ties, bins=10).edges
        ),
    }


class TestRowKernelMatchesNumpy:
    """The row kernel reproduces ``np.histogram``'s counts exactly."""

    @pytest.mark.parametrize("case", sorted(_kernel_cases()))
    def test_counts_equal_numpy_on_clipped_data(self, case):
        rows, edges = _kernel_cases()[case]
        expected = _numpy_counts(rows, edges)
        clipped = np.clip(rows, edges[0], edges[-1])
        assert np.array_equal(binned_counts(clipped, edges), expected)
        # Unclipped input lands in the end bins, exactly as if clipped.
        assert np.array_equal(binned_counts(rows, edges), expected)

    @pytest.mark.parametrize("case", sorted(_kernel_cases()))
    def test_one_row_calls_equal_numpy(self, case):
        rows, edges = _kernel_cases()[case]
        expected = _numpy_counts(rows, edges)
        hist = FixedEdgeHistogram(edges)
        for row, want in zip(rows, expected):
            assert np.array_equal(hist.counts(row), want)
            assert np.array_equal(
                relative_frequencies(row, edges), want / want.sum()
            )
            assert np.array_equal(hist.probabilities(row), want / want.sum())

    @pytest.mark.parametrize("case", sorted(_kernel_cases()))
    def test_batched_rows_equal_one_row_calls(self, case):
        rows, edges = _kernel_cases()[case]
        batched = FixedEdgeHistogram(edges).row_probabilities(rows)
        assert np.array_equal(
            batched, np.array([relative_frequencies(r, edges) for r in rows])
        )

    def test_counts_dtype_is_integer(self):
        counts = binned_counts(np.array([[0.5, 1.5]]), np.array([0.0, 1.0, 2.0]))
        assert counts.dtype.kind == "i"

    def test_empty_rows_count_nothing(self):
        counts = FixedEdgeHistogram(np.array([0.0, 1.0, 2.0])).counts(
            np.array([])
        )
        assert np.array_equal(counts, np.zeros(2, dtype=int))

    def test_rejects_one_dimensional_rows(self):
        with pytest.raises(ConfigurationError):
            binned_counts(np.array([0.5, 1.5]), np.array([0.0, 1.0, 2.0]))

    def test_rejects_decreasing_edges(self):
        with pytest.raises(ConfigurationError):
            relative_frequencies(np.array([0.5]), np.array([0.0, 2.0, 1.0]))

    def test_row_probabilities_rejects_nan(self):
        from repro.errors import NonFiniteInputError

        rows = np.array([[0.5, 0.6], [0.5, np.nan]])
        with pytest.raises(NonFiniteInputError):
            FixedEdgeHistogram(np.array([0.0, 1.0])).row_probabilities(rows)
