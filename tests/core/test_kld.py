"""Unit tests for the KLD detector — the paper's core contribution."""

import numpy as np
import pytest

from repro.core.kld import KLDDetector
from repro.errors import ConfigurationError, NotFittedError
from repro.timeseries.seasonal import SLOTS_PER_WEEK


@pytest.fixture(scope="module")
def fitted(train_matrix):
    return KLDDetector(bins=10, significance=0.05).fit(train_matrix)


class TestFitArtifacts:
    def test_reference_distribution_normalised(self, fitted):
        assert fitted.reference_distribution.sum() == pytest.approx(1.0)
        assert fitted.reference_distribution.size == 10

    def test_training_divergences_one_per_week(self, fitted, train_matrix):
        assert fitted.training_divergences.size == train_matrix.shape[0]

    def test_threshold_is_95th_percentile(self, fitted):
        expected = fitted.training_divergences.percentile(95.0)
        assert fitted.threshold == pytest.approx(expected)

    def test_10pct_threshold_lower_than_5pct(self, train_matrix):
        aggressive = KLDDetector(significance=0.10).fit(train_matrix)
        conservative = KLDDetector(significance=0.05).fit(train_matrix)
        assert aggressive.threshold <= conservative.threshold

    def test_bin_edges_span_training_data(self, fitted, train_matrix):
        assert fitted.histogram.edges[0] == pytest.approx(train_matrix.min())
        assert fitted.histogram.edges[-1] == pytest.approx(train_matrix.max())

    def test_unfitted_access_raises(self):
        detector = KLDDetector()
        with pytest.raises(NotFittedError):
            detector.threshold
        with pytest.raises(NotFittedError):
            detector.reference_distribution


class TestEquation12:
    def test_divergence_of_training_week_matches_k_i(self, fitted, train_matrix):
        """K_i recomputed through the public API equals the stored one."""
        k0 = fitted.divergence_of(train_matrix[0])
        assert k0 == pytest.approx(fitted.training_divergences.samples.min(), abs=10)
        # More precisely: it must be one of the stored K_i values.
        assert any(
            np.isclose(k0, k) for k in fitted.training_divergences.samples
        )

    def test_divergence_base2(self, fitted, train_matrix):
        """Eq 12 uses log base 2; a manual recomputation must agree."""
        from repro.stats.divergence import kl_divergence

        week = train_matrix[3]
        manual = kl_divergence(
            fitted.week_distribution(week), fitted.reference_distribution, base=2
        )
        assert fitted.divergence_of(week) == pytest.approx(manual)

    def test_identical_distribution_zero_divergence(self, fitted, train_matrix):
        assert fitted.divergence_of(train_matrix.ravel()[:SLOTS_PER_WEEK]) >= 0


class TestDetection:
    def test_training_false_positive_rate_near_alpha(self, train_matrix):
        detector = KLDDetector(significance=0.10).fit(train_matrix)
        flags = [detector.flags(week) for week in train_matrix]
        # By construction ~10% of training weeks sit above the 90th pct.
        assert np.mean(flags) == pytest.approx(0.10, abs=0.05)

    def test_shifted_week_flagged(self, fitted, train_matrix):
        """A week at triple the historic level has a clearly different
        reading distribution."""
        assert fitted.flags(train_matrix[0] * 3.0)

    def test_constant_week_flagged(self, fitted, train_matrix):
        week = np.full(SLOTS_PER_WEEK, float(train_matrix.mean()))
        assert fitted.flags(week)

    def test_permuted_week_not_distinguishable(self, fitted, train_matrix, rng):
        """Reordering readings cannot change the KLD statistic — the
        Optimal Swap blindness the conditional detector fixes."""
        week = train_matrix[1]
        shuffled = rng.permutation(week)
        assert fitted.divergence_of(shuffled) == pytest.approx(
            fitted.divergence_of(week)
        )

    def test_score_detail_mentions_threshold(self, fitted, train_matrix):
        result = fitted.score_week(train_matrix[0])
        assert "threshold" in result.detail

    def test_name_includes_significance(self):
        assert "5%" in KLDDetector(significance=0.05).name
        assert "10%" in KLDDetector(significance=0.10).name


class TestQuantileBinning:
    def test_mass_binning_near_uniform_reference(self, train_matrix):
        detector = KLDDetector(binning="mass").fit(train_matrix)
        reference = detector.reference_distribution
        assert reference.max() < 0.2  # ~0.1 each for 10 bins
        assert reference.min() > 0.05

    def test_mass_binning_detects_attacks_too(self, train_matrix):
        detector = KLDDetector(binning="mass", significance=0.05).fit(
            train_matrix
        )
        assert detector.flags(train_matrix[0] * 3.0)

    def test_mass_binning_training_fp_near_alpha(self, train_matrix):
        detector = KLDDetector(binning="mass", significance=0.10).fit(
            train_matrix
        )
        import numpy as np

        flags = [detector.flags(week) for week in train_matrix]
        assert np.mean(flags) <= 0.2

    def test_rejects_unknown_binning(self):
        with pytest.raises(ConfigurationError):
            KLDDetector(binning="log")


class TestDegradedMode:
    """Partial-week (gappy) scoring for the resilient pipeline."""

    def test_declares_support(self):
        assert KLDDetector.supports_partial_weeks is True

    def test_full_week_agrees_with_normal_path(self, fitted, train_matrix):
        week = train_matrix[0]
        assert fitted.score_partial_week(week) == fitted.score_week(week)

    def test_mild_gaps_barely_move_the_score(self, fitted, train_matrix):
        """Histogram mass renormalises over observed slots: knocking out
        a few slots of a normal week must not invent an anomaly."""
        week = train_matrix[1].copy()
        full_score = fitted.score_week(week).score
        week[10:14] = np.nan
        degraded = fitted.score_partial_week(week)
        assert not degraded.flagged
        assert degraded.score == pytest.approx(full_score, abs=0.1)
        assert degraded.threshold == fitted.threshold

    def test_attack_still_detected_with_gaps(self, fitted, train_matrix):
        week = train_matrix[0] * 3.0
        week[0:48] = np.nan  # a whole day missing
        result = fitted.score_partial_week(week)
        assert result.flagged

    def test_detail_mentions_degraded_mode(self, fitted, train_matrix):
        week = train_matrix[2].copy()
        week[100:110] = np.nan
        detail = fitted.score_partial_week(week).detail
        assert "degraded" in detail
        assert "97%" in detail  # 326/336 observed slots


class TestConfiguration:
    def test_rejects_bad_bins(self):
        with pytest.raises(ConfigurationError):
            KLDDetector(bins=1)

    def test_rejects_bad_significance(self):
        with pytest.raises(ConfigurationError):
            KLDDetector(significance=0.0)
        with pytest.raises(ConfigurationError):
            KLDDetector(significance=1.0)

    def test_more_bins_more_sensitive(self, train_matrix, rng):
        """Section VIII-D: fewer bins -> fewer false positives (the KLD
        statistic is coarser).  Check the training-set flag rate is
        monotone-ish in the bin count."""
        coarse = KLDDetector(bins=4, significance=0.10).fit(train_matrix)
        fine = KLDDetector(bins=40, significance=0.10).fit(train_matrix)
        week = train_matrix[0] * 1.3  # mild anomaly
        assert fine.divergence_of(week) >= coarse.divergence_of(week) - 0.05


class TestInputHardening:
    """NaN/inf and empty inputs fail with typed errors, never NaN scores."""

    def test_fit_rejects_nan_training_matrix(self, train_matrix):
        from repro.errors import NonFiniteInputError

        poisoned = train_matrix.copy()
        poisoned[0, 0] = np.nan
        with pytest.raises(NonFiniteInputError):
            KLDDetector().fit(poisoned)

    def test_fit_rejects_empty_training_matrix(self):
        from repro.errors import DataError

        with pytest.raises(DataError):
            KLDDetector().fit(np.empty((0, SLOTS_PER_WEEK)))

    def test_divergence_of_rejects_nan_week(self, fitted):
        from repro.errors import NonFiniteInputError

        week = np.full(SLOTS_PER_WEEK, 1.0)
        week[7] = np.nan
        with pytest.raises(NonFiniteInputError):
            fitted.divergence_of(week)

    def test_partial_week_with_zero_observed_slots_raises(self, fitted):
        from repro.errors import DataError

        week = np.full(SLOTS_PER_WEEK, np.nan)
        observed = np.zeros(SLOTS_PER_WEEK, dtype=bool)
        with pytest.raises(DataError):
            fitted._score_partial_week(week, observed)


def _numpy_frequencies(values, edges):
    clipped = np.clip(np.ravel(values), edges[0], edges[-1])
    counts, _ = np.histogram(clipped, bins=edges)
    return counts / counts.sum()


def _matrix_with_empty_bins(train_matrix):
    """Real weeks plus weeks that leave most bins empty."""
    matrix = train_matrix[:20].copy()
    matrix[3] = 0.0
    matrix[7] = train_matrix.max()
    matrix[11, ::2] = 0.0
    return matrix


class TestBatchedFitMatchesPerWeek:
    """The one-call training histogram gives today's K_i bit for bit."""

    @pytest.mark.parametrize("binning", ["width", "mass"])
    @pytest.mark.parametrize("significance", [0.05, 0.10])
    @pytest.mark.parametrize("matrix_kind", ["train", "empty_bins"])
    def test_divergences_and_threshold_equal(
        self, train_matrix, binning, significance, matrix_kind
    ):
        from repro.stats.divergence import kl_divergence
        from repro.stats.percentile import EmpiricalDistribution

        matrix = (
            train_matrix
            if matrix_kind == "train"
            else _matrix_with_empty_bins(train_matrix)
        )
        detector = KLDDetector(
            bins=10, significance=significance, binning=binning
        ).fit(matrix)
        edges = detector.histogram.edges
        reference = _numpy_frequencies(matrix, edges)
        weeks = [_numpy_frequencies(week, edges) for week in matrix]
        expected = np.array([kl_divergence(p, reference) for p in weeks])
        if matrix_kind == "empty_bins":
            assert sum(np.any(p == 0) for p in weeks) >= 2
        assert np.array_equal(detector.reference_distribution, reference)
        assert np.array_equal(
            detector.training_divergences.samples, np.sort(expected)
        )
        assert detector.threshold == EmpiricalDistribution(
            expected
        ).upper_tail_threshold(significance)
