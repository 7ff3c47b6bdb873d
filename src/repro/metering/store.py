"""Reading storage at the utility control centre."""

from __future__ import annotations

import math
from collections import defaultdict

import numpy as np

from repro.errors import DataError, MeteringError
from repro.observability.metrics import MetricsRegistry, global_registry
from repro.timeseries.seasonal import SLOTS_PER_WEEK

#: Metric counting re-delivered (consumer, slot) pairs absorbed
#: idempotently by :meth:`ReadingStore.record`.
DUPLICATE_METRIC = "fdeta_readings_duplicate_total"


class ReadingStore:
    """Append-only store of reported readings, keyed by consumer.

    Readings are indexed by consecutive polling periods ``t = 0, 1, ...``;
    each consumer's series must be appended in order (the AMI delivers
    readings per polling cycle).

    Missing readings are first-class citizens: :meth:`append_gap` records
    a NaN placeholder so a consumer's series stays slot-aligned across
    communication losses.  The ordinary :meth:`append`/:meth:`extend`
    path rejects non-finite values — a NaN sneaking in through the value
    path is a bug (corrupted frame, bad parse), not a gap.

    :meth:`record` is the slot-addressed alternative for re-delivery
    paths (post-crash re-polls): writing the same (consumer, slot) twice
    is idempotent (last-write-wins) and counted, never double-appended.
    """

    def __init__(self, metrics: MetricsRegistry | None = None) -> None:
        self._series: dict[str, list[float]] = defaultdict(list)
        self.metrics = metrics

    @staticmethod
    def _validated(consumer_id: str, reading: float) -> float:
        value = float(reading)
        if not math.isfinite(value):
            raise MeteringError(
                f"reading for {consumer_id!r} must be finite, got {value}; "
                "use append_gap() to record a missing reading"
            )
        if value < 0:
            raise MeteringError(
                f"reading for {consumer_id!r} must be >= 0, got {value}"
            )
        return value

    def append(self, consumer_id: str, reading: float) -> None:
        """Record one reading for the consumer's next time period."""
        self._series[consumer_id].append(
            self._validated(consumer_id, reading)
        )

    def record(self, consumer_id: str, slot: int, reading: float) -> bool:
        """Slot-addressed idempotent write (last-write-wins).

        Writes ``reading`` into the consumer's series at ``slot``:
        a slot beyond the current series end extends it (intervening
        slots become NaN gaps), while a slot already present is
        overwritten in place — the re-delivered duplicate is absorbed,
        counted in ``fdeta_readings_duplicate_total``, and the series
        length (the polling clock) does not move.  Returns ``True``
        when the write extended the series, ``False`` when it
        overwrote an existing slot.
        """
        value = self._validated(consumer_id, reading)
        slot = int(slot)
        if slot < 0:
            raise DataError(f"slot must be >= 0, got {slot}")
        series = self._series[consumer_id]
        if slot < len(series):
            series[slot] = value
            registry = (
                self.metrics if self.metrics is not None else global_registry()
            )
            registry.counter(
                DUPLICATE_METRIC,
                "Re-delivered (consumer, slot) readings absorbed "
                "idempotently (last-write-wins).",
            ).inc()
            return False
        while len(series) < slot:
            series.append(math.nan)
        series.append(value)
        return True

    def append_gap(self, consumer_id: str) -> None:
        """Record a missing reading (NaN placeholder) for the next period.

        This is the explicit gap-marker API: it keeps the consumer's
        series aligned with the polling clock when a cycle's reading was
        lost, so every later reading still lands in its true slot.
        """
        self._series[consumer_id].append(math.nan)

    def extend(self, consumer_id: str, readings: np.ndarray) -> None:
        """Record a batch of consecutive readings."""
        for value in np.asarray(readings, dtype=float).ravel():
            self.append(consumer_id, float(value))

    def clear(self, consumer_id: str) -> None:
        """Drop a consumer's entire series (quarantine eviction)."""
        self._series.pop(consumer_id, None)

    def consumers(self) -> tuple[str, ...]:
        return tuple(self._series)

    def length(self, consumer_id: str) -> int:
        return len(self._series.get(consumer_id, ()))

    def gap_count(self, consumer_id: str) -> int:
        """Number of gap markers currently in a consumer's series."""
        values = self._series.get(consumer_id, ())
        return sum(1 for value in values if math.isnan(value))

    def series(self, consumer_id: str) -> np.ndarray:
        """Full reading series for a consumer as a float array."""
        values = self._series.get(consumer_id)
        if not values:
            raise DataError(f"no readings stored for {consumer_id!r}")
        return np.asarray(values, dtype=float)

    def week_matrix(
        self, consumer_id: str, slots_per_week: int = SLOTS_PER_WEEK
    ) -> np.ndarray:
        """Readings reshaped to ``(weeks, slots_per_week)``.

        Trailing readings that do not complete a week are dropped.
        """
        series = self.series(consumer_id)
        n_weeks = series.size // slots_per_week
        if n_weeks == 0:
            raise DataError(
                f"{consumer_id!r} has only {series.size} readings; "
                f"need >= {slots_per_week} for one week"
            )
        return series[: n_weeks * slots_per_week].reshape(n_weeks, slots_per_week)

    def week(
        self,
        consumer_id: str,
        week_index: int,
        slots_per_week: int = SLOTS_PER_WEEK,
    ) -> np.ndarray:
        """One recorded week as a float array (a copy, not a view).

        Reads only that week's slice, so per-week callers do not pay
        for reshaping the whole series.
        """
        series = self._series.get(consumer_id, ())
        start = int(week_index) * slots_per_week
        if week_index < 0 or start + slots_per_week > len(series):
            raise DataError(
                f"{consumer_id!r} has no complete week {week_index}"
            )
        return np.asarray(series[start : start + slots_per_week], dtype=float)

    def latest_week(
        self, consumer_id: str, slots_per_week: int = SLOTS_PER_WEEK
    ) -> np.ndarray:
        """The most recent complete week of readings."""
        return self.week_matrix(consumer_id, slots_per_week)[-1]

    def overwrite_week(
        self,
        consumer_id: str,
        week_index: int,
        values: np.ndarray,
        slots_per_week: int = SLOTS_PER_WEEK,
    ) -> None:
        """Replace one recorded week with repaired values.

        Part of the gap-repair path: after interpolation fills short
        gaps, the repaired week is written back so training and
        checkpoints see the repaired series.  Values must be finite and
        non-negative or NaN (residual gaps are allowed to remain).
        """
        arr = np.asarray(values, dtype=float).ravel()
        if arr.size != slots_per_week:
            raise DataError(
                f"repaired week must have {slots_per_week} readings, "
                f"got {arr.size}"
            )
        finite = arr[np.isfinite(arr)]
        if np.any(finite < 0) or np.any(np.isinf(arr)):
            raise MeteringError(
                f"repaired week for {consumer_id!r} must hold finite "
                "non-negative readings or NaN gaps"
            )
        series = self._series.get(consumer_id)
        start = week_index * slots_per_week
        if series is None or week_index < 0 or start + slots_per_week > len(series):
            raise DataError(
                f"{consumer_id!r} has no complete week {week_index} to overwrite"
            )
        series[start : start + slots_per_week] = [float(v) for v in arr]
