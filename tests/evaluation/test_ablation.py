"""Tests for the ablation studies."""

import pytest

from repro.data.synthetic import SyntheticCERConfig, generate_cer_like_dataset
from repro.errors import ConfigurationError
from repro.evaluation.ablation import (
    bin_count_sweep,
    divergence_sweep,
)


@pytest.fixture(scope="module")
def ablation_dataset():
    return generate_cer_like_dataset(
        SyntheticCERConfig(n_consumers=6, n_weeks=74, seed=55)
    )


@pytest.fixture(scope="module")
def consumers(ablation_dataset):
    return ablation_dataset.consumers()[:4]


class TestBinCountSweep:
    def test_sweep_shape(self, ablation_dataset, consumers):
        points = bin_count_sweep(
            ablation_dataset, consumers, bin_counts=(4, 10, 20)
        )
        assert [p.parameter for p in points] == [4.0, 10.0, 20.0]
        for point in points:
            assert 0.0 <= point.detection_rate <= 1.0
            assert 0.0 <= point.false_positive_rate <= 1.0

    def test_ten_bins_detects_majority(self, ablation_dataset, consumers):
        """The paper's operating point (B=10) must detect the Integrated
        ARIMA attack for most consumers."""
        points = bin_count_sweep(
            ablation_dataset, consumers, bin_counts=(10,)
        )
        assert points[0].detection_rate >= 0.5

    def test_rejects_empty_consumers(self, ablation_dataset):
        with pytest.raises(ConfigurationError):
            bin_count_sweep(ablation_dataset, ())


class TestDivergenceSweep:
    def test_both_divergences_evaluated(self, ablation_dataset, consumers):
        results = divergence_sweep(ablation_dataset, consumers)
        assert set(results) == {"kl", "js"}

    def test_kl_detects_majority(self, ablation_dataset, consumers):
        results = divergence_sweep(ablation_dataset, consumers)
        assert results["kl"].detection_rate >= 0.5
