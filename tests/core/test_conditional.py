"""Unit tests for the price-conditioned KLD detector."""

import numpy as np
import pytest

from repro.core.conditional import PriceConditionedKLDDetector
from repro.errors import ConfigurationError, NotFittedError
from repro.pricing.schemes import FlatRatePricing, TimeOfUsePricing


@pytest.fixture(scope="module")
def fitted(train_matrix):
    return PriceConditionedKLDDetector(
        pricing=TimeOfUsePricing(), bins=10, significance=0.05
    ).fit(train_matrix)


class TestConditioning:
    def test_two_price_levels_for_tou(self, fitted, train_matrix):
        levels = fitted.divergences_of(train_matrix[0])
        assert len(levels) == 2
        assert set(levels) == {0.18, 0.21}

    def test_divergences_per_level(self, fitted, train_matrix):
        divergences = fitted.divergences_of(train_matrix[0])
        assert set(divergences) == {0.18, 0.21}
        assert all(v >= 0 for v in divergences.values())

    def test_rejects_flat_rate(self):
        with pytest.raises(ConfigurationError):
            PriceConditionedKLDDetector(pricing=FlatRatePricing())

    def test_unfitted_raises(self):
        detector = PriceConditionedKLDDetector(pricing=TimeOfUsePricing())
        with pytest.raises(NotFittedError):
            detector.divergences_of(np.zeros(336))


class TestSwapDetection:
    def test_catches_optimal_swap(self, fitted, train_matrix, rng):
        """Section VIII-F3: conditioning on price reveals the swap that
        the plain KLD detector cannot see."""
        from repro.attacks.injection.base import InjectionContext
        from repro.attacks.injection.optimal_swap import OptimalSwapAttack

        week = train_matrix[2]
        context = InjectionContext(
            train_matrix=train_matrix,
            actual_week=week,
            band_lower=np.zeros_like(week),
            band_upper=np.full_like(week, week.max() * 10),
        )
        vector = OptimalSwapAttack(respect_band=False).inject(context, rng)
        divergences_attack = fitted.divergences_of(vector.reported)
        divergences_normal = fitted.divergences_of(week)
        # The swap deforms both conditional distributions.
        assert (
            max(divergences_attack.values())
            > max(divergences_normal.values())
        )
        assert fitted.flags(vector.reported)

    def test_normal_week_usually_passes(self, fitted, paper_dataset):
        cid = paper_dataset.consumers()[0]
        flags = [
            fitted.flags(week) for week in paper_dataset.test_matrix(cid)[:5]
        ]
        assert sum(flags) <= 2

    def test_training_flag_rate_bounded(self, fitted, train_matrix):
        flags = [fitted.flags(week) for week in train_matrix]
        # Union of two alpha=5% tests: at most ~10-15% of training weeks.
        assert np.mean(flags) <= 0.2

    def test_score_detail_names_price(self, fitted, train_matrix):
        result = fitted.score_week(train_matrix[0])
        assert "$/kWh" in result.detail


class TestConfiguration:
    def test_rejects_bad_bins(self):
        with pytest.raises(ConfigurationError):
            PriceConditionedKLDDetector(pricing=TimeOfUsePricing(), bins=1)

    def test_rejects_bad_significance(self):
        with pytest.raises(ConfigurationError):
            PriceConditionedKLDDetector(
                pricing=TimeOfUsePricing(), significance=2.0
            )

    def test_rtp_multi_level_conditioning(self, train_matrix):
        """The paper's RTP extension: one conditional distribution per
        price level."""
        from repro.pricing.schemes import RealTimePricing

        prices = np.tile(np.array([0.1, 0.2, 0.3]), 112)
        scheme = RealTimePricing(prices=prices, update_period=1)
        detector = PriceConditionedKLDDetector(pricing=scheme).fit(train_matrix)
        assert len(detector.divergences_of(train_matrix[0])) == 3


class TestBatchedFitMatchesPerWeek:
    """Each price level's one-call fit gives today's K_i bit for bit."""

    @pytest.mark.parametrize("matrix_kind", ["train", "empty_bins"])
    def test_divergences_and_threshold_equal(self, train_matrix, matrix_kind):
        from repro.stats.divergence import kl_divergence
        from repro.stats.percentile import EmpiricalDistribution

        matrix = train_matrix[:20].copy()
        if matrix_kind == "empty_bins":
            matrix[2] = 0.0
            matrix[5, ::3] = matrix.max()
        detector = PriceConditionedKLDDetector(
            pricing=TimeOfUsePricing(), bins=10, significance=0.05
        ).fit(matrix)
        empty_rows = 0
        for level, mask in detector._masks.items():
            edges = detector._histograms[level].edges

            def freqs(values):
                clipped = np.clip(np.ravel(values), edges[0], edges[-1])
                counts, _ = np.histogram(clipped, bins=edges)
                return counts / counts.sum()

            reference = freqs(matrix[:, mask])
            weeks = [freqs(week[mask]) for week in matrix]
            empty_rows += sum(np.any(p == 0) for p in weeks)
            expected = np.array([kl_divergence(p, reference) for p in weeks])
            assert np.array_equal(detector._references[level], reference)
            assert np.array_equal(
                detector._distributions[level].samples, np.sort(expected)
            )
            assert detector._thresholds[level] == EmpiricalDistribution(
                expected
            ).upper_tail_threshold(0.05)
        if matrix_kind == "empty_bins":
            assert empty_rows >= 2
