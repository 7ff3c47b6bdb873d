"""The F-DETA five-step detection framework (Section VII).

F-DETA is detector-agnostic; it prescribes the *pipeline*:

1. model each consumer's expected consumption;
2. flag anomalous new readings;
3. classify anomalies as attacker-like (abnormally low) or victim-like
   (abnormally high, per Proposition 2);
4. discount anomalies explained by external evidence (holidays, weather,
   special events) as probable false positives;
5. investigate remaining anomalies through the grid's balance-check
   machinery (Section V-B/C).

:class:`FDetaFramework` wires per-consumer detectors to steps 1-4; step 5
is :mod:`repro.grid.investigation` over a
:class:`~repro.grid.balance.BalanceAuditor` report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Mapping

import numpy as np

from repro.detectors.base import DetectionResult, WeeklyDetector
from repro.errors import ConfigurationError, DataError
from repro.stats.percentile import EmpiricalDistribution


class AnomalyNature(Enum):
    """Step-3 classification of a flagged week."""

    #: Readings abnormally low: the consumer looks like the attacker
    #: (Attack Classes 2A/2B under-report her own meter).
    SUSPECTED_ATTACKER = "suspected_attacker"
    #: Readings abnormally high: the consumer looks like a victimised
    #: neighbour of an attacker (Attack Classes 1B-3B over-report victims).
    SUSPECTED_VICTIM = "suspected_victim"
    #: Flagged, but neither direction dominates (e.g. a load swap).
    SHAPE_CHANGE = "shape_change"
    #: Not flagged.
    NORMAL = "normal"


@dataclass(frozen=True)
class ExternalEvidence:
    """Step-4 context that can explain an anomaly away.

    ``anomalous_weeks`` marks week indices with a known benign cause
    (severe weather, holidays, special events) for specific consumers
    (or ``"*"`` for everyone).
    """

    holiday_weeks: frozenset[int] = frozenset()
    notes: Mapping[str, str] = field(default_factory=dict)

    def explains(self, consumer_id: str, week_index: int) -> bool:
        """Whether a benign explanation exists for this consumer-week."""
        return week_index in self.holiday_weeks


@dataclass(frozen=True)
class ConsumerAssessment:
    """Per-consumer outcome of one F-DETA evaluation cycle.

    ``coverage`` is the fraction of the week's slots that were actually
    observed; 1.0 for the normal path, below 1.0 when the week was
    scored in degraded mode (see :meth:`FDetaFramework.assess_partial_week`).
    """

    consumer_id: str
    result: DetectionResult
    nature: AnomalyNature
    false_positive_suspected: bool
    coverage: float = 1.0

    @property
    def degraded(self) -> bool:
        """Whether the week was scored with missing slots."""
        return self.coverage < 1.0


class FDetaFramework:
    """Per-consumer detectors orchestrated into the five-step pipeline.

    Parameters
    ----------
    detector_factory:
        Builds a fresh (unfit) detector for each consumer — typically
        ``lambda: KLDDetector(significance=0.05)``.
    triage_quantiles:
        Quantile thresholds ``(low_q, high_q)`` for step 3, applied to
        the consumer's *training weekly-mean distribution*: a flagged
        week whose mean sits at or below the ``low_q`` quantile is
        attacker-like (under-reporting), at or above ``high_q``
        victim-like (over-reported, Proposition 2), and in between a
        shape change.  Quantiles — rather than fixed ratios — matter
        because moment-evading attacks pin the weekly mean *at* the
        historic extremes, never beyond them.
    """

    def __init__(
        self,
        detector_factory: Callable[[], WeeklyDetector],
        triage_quantiles: tuple[float, float] = (0.2, 0.8),
    ) -> None:
        low_q, high_q = triage_quantiles
        if not 0.0 < low_q < high_q < 1.0:
            raise ConfigurationError(
                "triage_quantiles must satisfy 0 < low < high < 1, "
                f"got {triage_quantiles}"
            )
        self.detector_factory = detector_factory
        self.triage_quantiles = (float(low_q), float(high_q))
        self._detectors: dict[str, WeeklyDetector] = {}
        self._mean_distributions: dict[str, "EmpiricalDistribution"] = {}

    # ------------------------------------------------------------------
    # Step 1: model expected consumption
    # ------------------------------------------------------------------

    def train(self, train_matrices: Mapping[str, np.ndarray]) -> None:
        """Fit one detector per consumer on its training matrix."""
        if not train_matrices:
            raise DataError("no training matrices supplied")
        # Canonical (sorted) iteration: each consumer's fit is
        # independent, but detector factories may share hidden state
        # (an rng, a registry) and the model-lineage fingerprints hash
        # insertion order — training must be invariant to the caller's
        # dict ordering.
        for cid in sorted(train_matrices):
            matrix = train_matrices[cid]
            detector = self.detector_factory()
            detector.fit(matrix)
            self._detectors[cid] = detector
            weekly_means = np.asarray(matrix, dtype=float).mean(axis=1)
            self._mean_distributions[cid] = EmpiricalDistribution(weekly_means)

    def detector_for(self, consumer_id: str) -> WeeklyDetector:
        try:
            return self._detectors[consumer_id]
        except KeyError:
            raise DataError(f"no detector trained for {consumer_id!r}") from None

    def has_detector(self, consumer_id: str) -> bool:
        """Whether a detector has been trained for this consumer."""
        return consumer_id in self._detectors

    # ------------------------------------------------------------------
    # Steps 2-4: flag, classify, discount
    # ------------------------------------------------------------------

    def _classify(self, consumer_id: str, week_mean: float) -> AnomalyNature:
        """Step-3 triage of a flagged week by its mean consumption.

        cdf is right-continuous: a week pinned exactly at the historic
        maximum scores 1.0, at the minimum scores > 0, so compare
        against both tails explicitly.
        """
        distribution = self._mean_distributions[consumer_id]
        low_q, high_q = self.triage_quantiles
        if week_mean <= distribution.percentile(100.0 * low_q):
            return AnomalyNature.SUSPECTED_ATTACKER
        if week_mean >= distribution.percentile(100.0 * high_q):
            return AnomalyNature.SUSPECTED_VICTIM
        return AnomalyNature.SHAPE_CHANGE

    def assess_week(
        self,
        consumer_id: str,
        week: np.ndarray,
        week_index: int = 0,
        evidence: ExternalEvidence | None = None,
    ) -> ConsumerAssessment:
        """Run steps 2-4 for one consumer's new week of readings."""
        detector = self.detector_for(consumer_id)
        result = detector.score_week(week)
        nature = AnomalyNature.NORMAL
        if result.flagged:
            week_mean = float(np.asarray(week, dtype=float).mean())
            nature = self._classify(consumer_id, week_mean)
        false_positive = bool(
            result.flagged
            and evidence is not None
            and evidence.explains(consumer_id, week_index)
        )
        return ConsumerAssessment(
            consumer_id=consumer_id,
            result=result,
            nature=nature,
            false_positive_suspected=false_positive,
        )

    def assess_partial_week(
        self,
        consumer_id: str,
        week: np.ndarray,
        week_index: int = 0,
        evidence: ExternalEvidence | None = None,
    ) -> ConsumerAssessment:
        """Steps 2-4 for a week that may contain NaN gaps (degraded mode).

        The detector renormalises over the observed slots (see
        :meth:`repro.detectors.base.WeeklyDetector.score_partial_week`)
        and the step-3 triage uses the observed-slot mean; the returned
        assessment carries the week's ``coverage`` so alerting layers
        can weigh (or suppress) low-coverage verdicts.
        """
        detector = self.detector_for(consumer_id)
        arr = np.asarray(week, dtype=float).ravel()
        result = detector.score_partial_week(arr)
        observed = ~np.isnan(arr)
        coverage = float(observed.mean())
        nature = AnomalyNature.NORMAL
        if result.flagged:
            nature = self._classify(consumer_id, float(arr[observed].mean()))
        false_positive = bool(
            result.flagged
            and evidence is not None
            and evidence.explains(consumer_id, week_index)
        )
        return ConsumerAssessment(
            consumer_id=consumer_id,
            result=result,
            nature=nature,
            false_positive_suspected=false_positive,
            coverage=coverage,
        )
