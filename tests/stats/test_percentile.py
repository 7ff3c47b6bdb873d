"""Unit tests for empirical distributions and percentile thresholds."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.stats.percentile import EmpiricalDistribution, percentile


class TestPercentileFunction:
    def test_median(self):
        assert percentile(np.array([1.0, 2.0, 3.0]), 50.0) == 2.0

    def test_extremes(self):
        data = np.array([5.0, 1.0, 9.0])
        assert percentile(data, 0.0) == 1.0
        assert percentile(data, 100.0) == 9.0

    def test_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            percentile(np.array([]), 50.0)

    def test_rejects_out_of_range_q(self):
        with pytest.raises(ConfigurationError):
            percentile(np.array([1.0]), 150.0)


class TestEmpiricalDistribution:
    def test_samples_sorted_internally(self):
        dist = EmpiricalDistribution(np.array([3.0, 1.0, 2.0]))
        assert np.array_equal(dist.samples, [1.0, 2.0, 3.0])

    def test_upper_tail_threshold_matches_percentile(self, rng):
        samples = rng.normal(size=200)
        dist = EmpiricalDistribution(samples)
        assert dist.upper_tail_threshold(0.05) == pytest.approx(
            np.percentile(samples, 95.0)
        )

    def test_rejects_above_threshold_only(self):
        dist = EmpiricalDistribution(np.arange(100.0))
        threshold = dist.upper_tail_threshold(0.10)
        assert np.mean(dist.samples > threshold) <= 0.10
        assert np.mean(dist.samples >= threshold) >= 0.10

    def test_rejects_roughly_alpha_fraction(self, rng):
        samples = rng.normal(size=10_000)
        dist = EmpiricalDistribution(samples)
        fresh = rng.normal(size=10_000)
        rate = np.mean(fresh > dist.upper_tail_threshold(0.10))
        assert rate == pytest.approx(0.10, abs=0.02)

    def test_rejects_empty_samples(self):
        with pytest.raises(ConfigurationError):
            EmpiricalDistribution(np.array([]))

    def test_rejects_nan_samples(self):
        with pytest.raises(ConfigurationError):
            EmpiricalDistribution(np.array([1.0, np.nan]))

    def test_rejects_bad_alpha(self):
        dist = EmpiricalDistribution(np.array([1.0, 2.0]))
        with pytest.raises(ConfigurationError):
            dist.upper_tail_threshold(0.0)
        with pytest.raises(ConfigurationError):
            dist.upper_tail_threshold(1.0)

    def test_size(self):
        assert EmpiricalDistribution(np.arange(7.0)).size == 7
