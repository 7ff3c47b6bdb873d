"""In-memory smart-meter dataset with the paper's train/test split."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.data.consumers import ConsumerType
from repro.errors import DataError
from repro.timeseries.seasonal import SLOTS_PER_WEEK

#: The paper's split of the 74 CER weeks (Section VIII-A).
DEFAULT_TRAIN_WEEKS = 60


@dataclass
class SmartMeterDataset:
    """Half-hourly consumption readings for a population of consumers.

    Attributes
    ----------
    readings:
        ``consumer_id -> series`` of average demand in kW; every series
        must cover the same whole number of 336-slot weeks.
    consumer_types:
        Optional category per consumer (defaults to UNCLASSIFIED).
    train_weeks:
        Number of leading weeks forming the training set; the remainder is
        the test set.
    """

    readings: dict[str, np.ndarray] = field(repr=False)
    consumer_types: dict[str, ConsumerType] = field(default_factory=dict)
    train_weeks: int = DEFAULT_TRAIN_WEEKS

    def __post_init__(self) -> None:
        if not self.readings:
            raise DataError("dataset must contain at least one consumer")
        lengths = set()
        cleaned: dict[str, np.ndarray] = {}
        for cid, series in self.readings.items():
            arr = np.asarray(series, dtype=float).ravel()
            if arr.size == 0 or arr.size % SLOTS_PER_WEEK != 0:
                raise DataError(
                    f"series for {cid!r} must be a whole number of "
                    f"{SLOTS_PER_WEEK}-slot weeks, got {arr.size} readings"
                )
            if np.any(arr < 0) or np.any(~np.isfinite(arr)):
                raise DataError(f"series for {cid!r} has negative/non-finite values")
            cleaned[cid] = arr
            lengths.add(arr.size)
        if len(lengths) != 1:
            raise DataError(f"all series must have equal length, got {lengths}")
        self.readings = cleaned
        total_weeks = lengths.pop() // SLOTS_PER_WEEK
        if not 1 <= self.train_weeks < total_weeks:
            # Degenerate split requested; clamp to leave >= 1 test week when
            # possible, otherwise fail loudly.
            raise DataError(
                f"train_weeks={self.train_weeks} incompatible with "
                f"{total_weeks} total weeks (need 1 <= train < total)"
            )
        for cid in self.readings:
            self.consumer_types.setdefault(cid, ConsumerType.UNCLASSIFIED)

    # ------------------------------------------------------------------
    # Shape
    # ------------------------------------------------------------------

    @property
    def n_consumers(self) -> int:
        return len(self.readings)

    @property
    def n_weeks(self) -> int:
        return next(iter(self.readings.values())).size // SLOTS_PER_WEEK

    @property
    def n_test_weeks(self) -> int:
        return self.n_weeks - self.train_weeks

    def consumers(self) -> tuple[str, ...]:
        return tuple(sorted(self.readings))

    def type_counts(self) -> dict[ConsumerType, int]:
        counts: dict[ConsumerType, int] = {kind: 0 for kind in ConsumerType}
        for kind in self.consumer_types.values():
            counts[kind] += 1
        return counts

    def _require(self, consumer_id: str) -> None:
        if consumer_id not in self.readings:
            raise DataError(f"unknown consumer: {consumer_id!r}")

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------

    def series(self, consumer_id: str) -> np.ndarray:
        """Full series (train + test) for a consumer."""
        self._require(consumer_id)
        return self.readings[consumer_id]

    def week_matrix(self, consumer_id: str) -> np.ndarray:
        """All weeks as a ``(n_weeks, 336)`` matrix."""
        return self.series(consumer_id).reshape(self.n_weeks, SLOTS_PER_WEEK)

    def train_matrix(self, consumer_id: str) -> np.ndarray:
        """Training matrix X of the paper: ``(train_weeks, 336)``."""
        return self.week_matrix(consumer_id)[: self.train_weeks]

    def test_matrix(self, consumer_id: str) -> np.ndarray:
        """Held-out weeks: ``(n_test_weeks, 336)``."""
        return self.week_matrix(consumer_id)[self.train_weeks :]

    def train_series(self, consumer_id: str) -> np.ndarray:
        """Training readings as a flat series."""
        return self.series(consumer_id)[: self.train_weeks * SLOTS_PER_WEEK]

    # ------------------------------------------------------------------
    # Population statistics used by the evaluation
    # ------------------------------------------------------------------

    def consumers_by_size(self) -> tuple[str, ...]:
        """Consumer ids sorted by descending training-set mean demand.

        The paper ranks consumers this way when discussing which consumer
        yields the largest theft (Section VIII-F2).
        """
        return tuple(
            sorted(
                self.readings,
                key=lambda cid: -float(self.train_series(cid).mean()),
            )
        )

    def peak_heaviness(self, peak_mask_week: np.ndarray) -> float:
        """Fraction of consumers whose peak-window consumption exceeds
        off-peak consumption on more than 90% of training days.

        Used to validate the synthetic data against the paper's 94.4%
        figure (Section VIII-B3).  ``peak_mask_week`` is a boolean mask of
        length 336 marking the daily peak window.
        """
        mask = np.asarray(peak_mask_week, dtype=bool).ravel()
        if mask.size != SLOTS_PER_WEEK:
            raise DataError(f"mask must have length {SLOTS_PER_WEEK}")
        day_mask = mask.reshape(7, 48)
        qualifying = 0
        for cid in self.readings:
            train = self.train_matrix(cid)
            days = train.reshape(-1, 48)
            day_peak = (days * np.tile(day_mask, (self.train_weeks, 1))[: days.shape[0]]).sum(
                axis=1
            )
            day_off = (days * ~np.tile(day_mask, (self.train_weeks, 1))[: days.shape[0]]).sum(
                axis=1
            )
            frac = float(np.mean(day_peak > day_off))
            if frac > 0.9:
                qualifying += 1
        return qualifying / self.n_consumers

    def subset(self, consumer_ids: tuple[str, ...]) -> "SmartMeterDataset":
        """A dataset restricted to the given consumers."""
        missing = [cid for cid in consumer_ids if cid not in self.readings]
        if missing:
            raise DataError(f"unknown consumers: {missing}")
        return SmartMeterDataset(
            readings={cid: self.readings[cid].copy() for cid in consumer_ids},
            consumer_types={cid: self.consumer_types[cid] for cid in consumer_ids},
            train_weeks=self.train_weeks,
        )
