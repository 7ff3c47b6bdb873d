"""Property-based tests (hypothesis) on core invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.pricing.billing import attacker_profit, neighbour_loss, stolen_energy_kwh
from repro.pricing.schemes import FlatRatePricing
from repro.stats.divergence import js_divergence, kl_divergence
from repro.stats.histogram import FixedEdgeHistogram
from repro.timeseries.differencing import difference, undifference

finite_floats = st.floats(
    min_value=0.0, max_value=100.0, allow_nan=False, allow_infinity=False
)

demand_arrays = arrays(
    dtype=np.float64,
    shape=st.integers(min_value=1, max_value=60),
    elements=finite_floats,
)


def _normalise(weights: np.ndarray) -> np.ndarray:
    total = weights.sum()
    if total <= 0:
        out = np.zeros_like(weights)
        out[0] = 1.0
        return out
    return weights / total


prob_vectors = arrays(
    dtype=np.float64,
    shape=st.integers(min_value=2, max_value=16),
    elements=st.floats(min_value=0.01, max_value=1.0),
).map(_normalise)


class TestDivergenceProperties:
    @given(p=prob_vectors)
    def test_self_divergence_zero(self, p):
        assert abs(kl_divergence(p, p)) < 1e-9

    @given(p=prob_vectors)
    def test_non_negativity_same_support(self, p):
        q = _normalise(np.roll(p, 1))
        assert kl_divergence(p, q) >= -1e-9

    @given(p=prob_vectors)
    def test_js_bounded(self, p):
        q = _normalise(p[::-1].copy())
        assert -1e-9 <= js_divergence(p, q) <= 1.0 + 1e-9


class TestHistogramProperties:
    @given(
        values=arrays(
            dtype=np.float64,
            shape=st.integers(min_value=2, max_value=100),
            elements=finite_floats,
        ),
        bins=st.integers(min_value=1, max_value=30),
    )
    def test_probabilities_sum_to_one(self, values, bins):
        hist = FixedEdgeHistogram.from_data(values, bins)
        probs = hist.probabilities(values)
        assert abs(probs.sum() - 1.0) < 1e-9
        assert np.all(probs >= 0)

    @given(
        values=arrays(
            dtype=np.float64,
            shape=st.integers(min_value=2, max_value=50),
            elements=finite_floats,
        ),
        shift=st.floats(min_value=-50, max_value=50, allow_nan=False),
    )
    def test_out_of_range_values_never_lost(self, values, shift):
        hist = FixedEdgeHistogram.from_data(values, 5)
        probs = hist.probabilities(values + shift)
        assert abs(probs.sum() - 1.0) < 1e-9


class TestBillingProperties:
    @given(demands=demand_arrays)
    def test_honest_reporting_never_profits(self, demands):
        assert attacker_profit(demands, demands, FlatRatePricing(0.2)) == 0.0

    @given(demands=demand_arrays, scale=st.floats(min_value=0.0, max_value=1.0))
    def test_under_reporting_never_loses(self, demands, scale):
        reported = demands * scale
        assert (
            attacker_profit(reported=reported, actual=demands, prices=FlatRatePricing(0.2))
            >= -1e-9
        )

    @given(demands=demand_arrays, scale=st.floats(min_value=1.0, max_value=3.0))
    def test_neighbour_loss_nonnegative_under_over_report(self, demands, scale):
        assert (
            neighbour_loss(demands, demands * scale, FlatRatePricing(0.2))
            >= -1e-9
        )

    @given(demands=demand_arrays)
    def test_profit_conservation(self, demands):
        """Mallory's profit equals the negative of the utility's view:
        alpha(actual, reported) == -alpha(reported, actual)."""
        reported = demands * 0.5
        tariff = FlatRatePricing(0.2)
        assert attacker_profit(demands, reported, tariff) == (
            -attacker_profit(reported, demands, tariff)
        )

    @given(
        demands=arrays(
            dtype=np.float64,
            shape=48,
            elements=finite_floats,
        ),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=25)
    def test_permutation_conserves_energy(self, demands, seed):
        """Any reordering (the swap attack's move) steals no energy."""
        rng = np.random.default_rng(seed)
        permuted = rng.permutation(demands)
        assert abs(stolen_energy_kwh(demands, permuted)) < 1e-6


class TestProposition1Property:
    @given(
        actual=demand_arrays,
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=50)
    def test_profit_implies_under_report_witness(self, actual, seed):
        """Proposition 1 as a property: whatever the reported series,
        positive profit implies an under-reported slot."""
        rng = np.random.default_rng(seed)
        reported = actual * rng.uniform(0.0, 2.0, size=actual.size)
        profit = attacker_profit(actual, reported, FlatRatePricing(0.2))
        if profit > 0:
            assert np.any(reported < actual)


class TestDifferencingProperties:
    @given(
        series=arrays(
            dtype=np.float64,
            shape=st.integers(min_value=5, max_value=60),
            elements=st.floats(
                min_value=-1e3, max_value=1e3, allow_nan=False
            ),
        ),
        order=st.integers(min_value=1, max_value=3),
    )
    def test_difference_undifference_roundtrip(self, series, order):
        if series.size <= order:
            return
        diffed = difference(series, order)
        restored = undifference(diffed, heads=series[:order], order=order)
        assert np.allclose(restored, series[order:], atol=1e-6)
