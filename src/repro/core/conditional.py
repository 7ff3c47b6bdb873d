"""Price-conditioned KLD detector (Section VIII-F3).

The Optimal Swap attack reorders readings within a week without changing
their distribution, so the plain KLD detector is blind to it.  The fix the
paper proposes is to split the X distribution into one distribution per
electricity price level (two for a TOU tariff, more for RTP), and run the
KLD test on each conditional distribution.  A swap moves the largest peak
readings into the off-peak window, deforming *both* conditionals.
"""

from __future__ import annotations

import numpy as np

from repro.detectors.base import DetectionResult, WeeklyDetector
from repro.errors import ConfigurationError, DataError, NotFittedError
from repro.pricing.schemes import PricingScheme
from repro.stats.divergence import kl_divergence, row_kl_divergences
from repro.stats.histogram import FixedEdgeHistogram
from repro.stats.percentile import EmpiricalDistribution
from repro.timeseries.seasonal import SLOTS_PER_WEEK


class PriceConditionedKLDDetector(WeeklyDetector):
    """One KLD test per price level; a week is flagged if any level rejects.

    Parameters
    ----------
    pricing:
        The pricing scheme; slots are grouped by ``pricing.price(t)``.
        The week is assumed to start at slot 0 of a day (slot-of-day
        alignment is what matters for TOU).
    bins:
        Histogram bins per conditional distribution.
    significance:
        Per-condition upper-tail significance level.
    """

    name = "Price-conditioned KLD detector"

    def __init__(
        self,
        pricing: PricingScheme,
        bins: int = 10,
        significance: float = 0.05,
    ) -> None:
        super().__init__()
        if bins < 2:
            raise ConfigurationError(f"bins must be >= 2, got {bins}")
        if not 0.0 < significance < 1.0:
            raise ConfigurationError(
                f"significance must be in (0, 1), got {significance}"
            )
        if not pricing.is_variable:
            raise ConfigurationError(
                "price conditioning requires a variable pricing scheme"
            )
        self.pricing = pricing
        self.bins = int(bins)
        self.significance = float(significance)
        self.name = (
            f"Price-conditioned KLD detector ({significance:.0%} significance)"
        )
        self._masks: dict[float, np.ndarray] | None = None
        self._histograms: dict[float, FixedEdgeHistogram] = {}
        self._references: dict[float, np.ndarray] = {}
        self._thresholds: dict[float, float] = {}
        self._distributions: dict[float, EmpiricalDistribution] = {}

    def _price_masks(self) -> dict[float, np.ndarray]:
        """Boolean slot masks of the week, one per distinct price."""
        prices = self.pricing.price_vector(SLOTS_PER_WEEK)
        masks: dict[float, np.ndarray] = {}
        for level in sorted(set(np.round(prices, 10))):
            masks[float(level)] = np.isclose(prices, level)
        return masks

    def _fit(self, train_matrix: np.ndarray) -> None:
        masks = self._price_masks()
        if len(masks) < 2:
            raise ConfigurationError(
                "pricing scheme yields a single price level over the week; "
                "conditioning is meaningless"
            )
        self._masks = masks
        for level, mask in masks.items():
            values = train_matrix[:, mask]
            histogram = FixedEdgeHistogram.from_data(values, self.bins)
            reference = histogram.probabilities(values)
            divergences = row_kl_divergences(
                histogram.row_probabilities(values), reference
            )
            dist = EmpiricalDistribution(divergences)
            self._histograms[level] = histogram
            self._references[level] = reference
            self._distributions[level] = dist
            self._thresholds[level] = dist.upper_tail_threshold(self.significance)

    def divergences_of(self, week: np.ndarray) -> dict[float, float]:
        """Per-price-level K values of a candidate week."""
        if self._masks is None:
            raise NotFittedError("detector has not been fit")
        arr = np.asarray(week, dtype=float).ravel()
        if arr.size != SLOTS_PER_WEEK:
            raise DataError(f"week must have {SLOTS_PER_WEEK} readings")
        out: dict[float, float] = {}
        for level, mask in self._masks.items():
            p = self._histograms[level].probabilities(arr[mask])
            out[level] = kl_divergence(p, self._references[level])
        return out

    def _score_week(self, week: np.ndarray) -> DetectionResult:
        divergences = self.divergences_of(week)
        # Report the worst condition, in units of its own threshold.
        worst_level = max(
            divergences,
            key=lambda lvl: divergences[lvl] - self._thresholds[lvl],
        )
        score = divergences[worst_level]
        threshold = self._thresholds[worst_level]
        flagged = any(
            divergences[lvl] > self._thresholds[lvl] for lvl in divergences
        )
        return DetectionResult(
            flagged=flagged,
            score=score,
            threshold=threshold,
            detail=(
                f"worst condition at price {worst_level:.4f} $/kWh: "
                f"KLD {score:.4f} vs threshold {threshold:.4f}"
            ),
        )
