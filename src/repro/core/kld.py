"""The Kullback-Leibler divergence detector (Section VII-D, eq 12).

For each consumer, a training matrix ``X`` of M weeks x 336 half-hours is
histogrammed once with B bins; the same bin edges are reused to histogram
each training week ``X_i`` and each candidate week.  The detector's test
statistic for a week is its KL divergence to the X distribution; the
decision threshold is an upper percentile of the training weeks' own
divergences (90th for alpha = 10%, 95th for alpha = 5%).
"""

from __future__ import annotations

import math

import numpy as np

from repro.detectors.base import DetectionResult, WeeklyDetector
from repro.errors import (
    ConfigurationError,
    DataError,
    NonFiniteInputError,
    NotFittedError,
)
from repro.stats.divergence import kl_divergence, row_kl_divergences
from repro.stats.histogram import FixedEdgeHistogram
from repro.stats.percentile import EmpiricalDistribution

#: The two significance levels illustrated in the paper.
DEFAULT_SIGNIFICANCE = 0.05
#: The number of histogram bins the paper settles on (Section VIII-D).
DEFAULT_BINS = 10


class KLDDetector(WeeklyDetector):
    """Multiple-reading anomaly detector based on KL divergence.

    Parameters
    ----------
    bins:
        Number of histogram bins B (the paper uses 10; fewer bins mean
        more false negatives and fewer false positives).
    significance:
        Upper-tail significance level alpha; the threshold is the
        ``(1 - alpha)`` percentile of the training KLD distribution.
    binning:
        ``"width"`` (the paper's equal-width bins) or ``"mass"``
        (equal-mass quantile bins — an ablation knob; see
        :meth:`repro.stats.FixedEdgeHistogram.from_quantiles`).
    """

    name = "KLD detector"
    supports_partial_weeks = True

    def __init__(
        self,
        bins: int = DEFAULT_BINS,
        significance: float = DEFAULT_SIGNIFICANCE,
        binning: str = "width",
    ) -> None:
        super().__init__()
        if bins < 2:
            raise ConfigurationError(f"bins must be >= 2, got {bins}")
        if not 0.0 < significance < 1.0:
            raise ConfigurationError(
                f"significance must be in (0, 1), got {significance}"
            )
        if binning not in {"width", "mass"}:
            raise ConfigurationError(
                f"binning must be 'width' or 'mass', got {binning!r}"
            )
        self.bins = int(bins)
        self.significance = float(significance)
        self.binning = binning
        self.name = f"KLD detector ({significance:.0%} significance)"
        self._histogram: FixedEdgeHistogram | None = None
        self._reference: np.ndarray | None = None
        self._kld_distribution: EmpiricalDistribution | None = None
        self._threshold: float | None = None

    # ------------------------------------------------------------------
    # Fitting
    # ------------------------------------------------------------------

    def _fit(self, train_matrix: np.ndarray) -> None:
        train_matrix = np.asarray(train_matrix, dtype=float)
        if train_matrix.size == 0:
            raise DataError("cannot fit KLD detector on empty training data")
        if not np.all(np.isfinite(train_matrix)):
            raise NonFiniteInputError(
                "KLD training matrix contains NaN/inf; repair or drop "
                "gappy weeks before fitting"
            )
        if self.binning == "mass":
            histogram = FixedEdgeHistogram.from_quantiles(
                train_matrix, self.bins
            )
        else:
            histogram = FixedEdgeHistogram.from_data(train_matrix, self.bins)
        reference = histogram.probabilities(train_matrix)
        divergences = row_kl_divergences(
            histogram.row_probabilities(train_matrix), reference
        )
        self._histogram = histogram
        self._reference = reference
        self._kld_distribution = EmpiricalDistribution(divergences)
        self._threshold = self._kld_distribution.upper_tail_threshold(
            self.significance
        )

    # ------------------------------------------------------------------
    # Introspection (used for Fig. 4 and the ablations)
    # ------------------------------------------------------------------

    @property
    def histogram(self) -> FixedEdgeHistogram:
        """Frozen bin edges derived from the training matrix."""
        if self._histogram is None:
            raise NotFittedError("KLD detector has not been fit")
        return self._histogram

    @property
    def reference_distribution(self) -> np.ndarray:
        """The X distribution: relative frequencies of all training values."""
        if self._reference is None:
            raise NotFittedError("KLD detector has not been fit")
        return self._reference.copy()

    @property
    def training_divergences(self) -> EmpiricalDistribution:
        """The KLD distribution: one K_i per training week."""
        if self._kld_distribution is None:
            raise NotFittedError("KLD detector has not been fit")
        return self._kld_distribution

    @property
    def threshold(self) -> float:
        """Decision threshold at this detector's significance level."""
        if self._threshold is None:
            raise NotFittedError("KLD detector has not been fit")
        return self._threshold

    def week_distribution(self, week: np.ndarray) -> np.ndarray:
        """An X_i-style distribution of one week under the frozen edges."""
        return self.histogram.probabilities(np.asarray(week, dtype=float))

    def divergence_of(self, week: np.ndarray) -> float:
        """K value (eq 12) of a week against the X distribution."""
        k_value = kl_divergence(
            self.week_distribution(week), self.reference_distribution
        )
        if not math.isfinite(k_value):
            # A non-finite statistic cannot be compared to the
            # threshold; propagating it would make `flagged` quietly
            # False for any week, however anomalous.
            raise NonFiniteInputError(
                f"KLD statistic is not finite ({k_value})"
            )
        return k_value

    # ------------------------------------------------------------------
    # Scoring
    # ------------------------------------------------------------------

    def _score_week(self, week: np.ndarray) -> DetectionResult:
        k_value = self.divergence_of(week)
        threshold = self.threshold
        return DetectionResult(
            flagged=k_value > threshold,
            score=k_value,
            threshold=threshold,
            detail=(
                f"KLD {k_value:.4f} vs {100 * (1 - self.significance):.0f}th "
                f"percentile threshold {threshold:.4f}"
            ),
        )

    def _score_partial_week(
        self, week: np.ndarray, observed: np.ndarray
    ) -> DetectionResult:
        """Degraded-mode scoring of a week with residual gaps.

        The week's histogram is built from the observed slots only;
        :func:`repro.stats.histogram.relative_frequencies` normalises by
        the observed count, so the probability mass is renormalised over
        the slots that actually arrived.  The KLD statistic is then the
        divergence of that renormalised distribution from the full
        training reference, compared against the unchanged threshold.
        """
        values = week[observed]
        if values.size == 0:
            raise DataError(
                "cannot score a week with zero observed readings"
            )
        distribution = self.histogram.probabilities(values)
        k_value = kl_divergence(distribution, self.reference_distribution)
        if not math.isfinite(k_value):
            raise NonFiniteInputError(
                f"degraded-mode KLD statistic is not finite ({k_value})"
            )
        threshold = self.threshold
        coverage = float(observed.mean())
        return DetectionResult(
            flagged=k_value > threshold,
            score=k_value,
            threshold=threshold,
            detail=(
                f"degraded-mode KLD {k_value:.4f} over {coverage:.0%} "
                f"observed slots vs threshold {threshold:.4f}"
            ),
        )
