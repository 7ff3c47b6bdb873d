"""Tests for the false-positive protocol study."""

import pytest

from repro.data.synthetic import SyntheticCERConfig, generate_cer_like_dataset
from repro.errors import ConfigurationError
from repro.evaluation.fp_protocols import false_positive_study


@pytest.fixture(scope="module")
def fp_dataset():
    return generate_cer_like_dataset(
        SyntheticCERConfig(n_consumers=15, n_weeks=74, seed=99)
    )


class TestFalsePositiveProtocols:
    def test_rates_ordered(self, fp_dataset):
        study = false_positive_study(fp_dataset, significance=0.10)
        # Strict (any-week) >= single-week by definition.
        assert study.any_week_rate >= study.single_week_rate
        assert 0.0 <= study.per_week_rate <= 1.0

    def test_per_week_rate_near_alpha(self, fp_dataset):
        """Pooled over consumer-weeks, the KLD flag rate should sit in
        the neighbourhood of the significance level."""
        study = false_positive_study(fp_dataset, significance=0.10)
        assert study.per_week_rate == pytest.approx(0.10, abs=0.10)

    def test_strict_protocol_compounds(self, fp_dataset):
        """The EXPERIMENTS.md deviation claim, verified: scoring all 14
        test weeks inflates per-consumer false positives well beyond the
        single-week protocol."""
        study = false_positive_study(fp_dataset, significance=0.10)
        assert study.any_week_rate >= study.single_week_rate
        # At alpha=10% over 14 weeks, most consumers trip at least once.
        assert study.any_week_rate >= 0.4

    def test_lower_alpha_fewer_fps(self, fp_dataset):
        strict = false_positive_study(fp_dataset, significance=0.02)
        loose = false_positive_study(fp_dataset, significance=0.20)
        assert strict.per_week_rate <= loose.per_week_rate

    def test_rejects_empty_consumers(self, fp_dataset):
        with pytest.raises(ConfigurationError):
            false_positive_study(fp_dataset, consumers=())
