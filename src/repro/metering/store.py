"""Reading storage at the utility control centre."""

from __future__ import annotations

import math
from collections.abc import Iterator, Mapping, Sequence
from types import MappingProxyType

import numpy as np

from repro.errors import DataError, MeteringError
from repro.observability.metrics import MetricsRegistry, global_registry
from repro.timeseries.seasonal import SLOTS_PER_WEEK

#: Metric counting re-delivered (consumer, slot) pairs absorbed
#: idempotently by :meth:`ReadingStore.record`.
DUPLICATE_METRIC = "fdeta_readings_duplicate_total"


class ReadingStore:
    """Reported readings as one float64 (consumers × slots) matrix.

    Readings are indexed by consecutive polling periods ``t = 0, 1, ...``.
    Each consumer owns one row of the matrix (``_rows`` maps a consumer
    id to its row index, in first-write order, which is the order
    :meth:`consumers` returns) and a length: the slots written so far.
    Cells at or past a row's length are NaN.  The slot axis is
    preallocated and grows by doubling; a dropped consumer's row is
    reused by the next new one.

    Missing readings are first-class citizens: a NaN in a written slot
    is a gap marker that keeps the consumer's series slot-aligned
    across communication losses.  :meth:`append_column` writes one
    polling cycle for many consumers at once and checks the whole
    column with one mask: NaN is a gap, inf or a negative raises
    :class:`~repro.errors.MeteringError`.

    :meth:`record` is the slot-addressed alternative for re-delivery
    paths (post-crash re-polls, late readings): writing the same
    (consumer, slot) twice is idempotent (last-write-wins) and counted,
    never double-appended.

    Arrays handed out are copies, except the rows of ``_series``: a
    read-only mapping of consumer id to a read-only view of its row.
    """

    def __init__(self, metrics: MetricsRegistry | None = None) -> None:
        self.metrics = metrics
        self._rows: dict[str, int] = {}
        self._free: list[int] = []
        self._lengths = np.zeros(0, dtype=np.int64)
        # An eighth of a week: doubling reaches SLOTS_PER_WEEK exactly,
        # and a meter costs 42 slots, not a week, before its first week.
        self._matrix = np.full((0, SLOTS_PER_WEEK // 8), np.nan)
        #: Bumped whenever a row is added or dropped; keys the cached
        #: id → row index of :meth:`_row_index`.
        self._layout = 0
        self._index_cache: tuple | None = None

    # ------------------------------------------------------------------
    # Layout
    # ------------------------------------------------------------------

    @property
    def _series(self) -> Mapping[str, np.ndarray]:
        """Read-only mapping: consumer id → read-only view of its row."""
        return MappingProxyType(
            {cid: self._view(row) for cid, row in self._rows.items()}
        )

    def _view(self, row: int) -> np.ndarray:
        view = self._matrix[row, : self._lengths[row]]
        view.flags.writeable = False
        return view

    def _reserve(self, n_rows: int, n_slots: int) -> None:
        """Grow the matrix (by doubling) to hold the given shape."""
        rows, slots = self._matrix.shape
        if n_rows <= rows and n_slots <= slots:
            return
        while rows < n_rows:
            rows = max(2 * rows, 1)
        while slots < n_slots:
            slots *= 2
        grown = np.full((rows, slots), np.nan)
        old_rows, old_slots = self._matrix.shape
        grown[:old_rows, :old_slots] = self._matrix
        self._matrix = grown
        lengths = np.zeros(rows, dtype=np.int64)
        lengths[:old_rows] = self._lengths
        self._lengths = lengths

    def _add_rows(self, consumer_ids: Sequence[str]) -> None:
        new = [
            cid for cid in dict.fromkeys(consumer_ids) if cid not in self._rows
        ]
        if not new:
            return
        # Rows ever handed out are either in use or free.
        high = len(self._rows) + len(self._free)
        self._reserve(high + max(0, len(new) - len(self._free)), 0)
        for cid in new:
            if self._free:
                self._rows[cid] = self._free.pop()
            else:
                self._rows[cid] = high
                high += 1
        self._layout += 1

    def _row_index(
        self, consumer_ids: Sequence[str], create: bool = False
    ) -> np.ndarray:
        """Row of each consumer, cached for a repeated id tuple.

        The cache is keyed on the (immutable) tuple object itself — a
        service passes the same roster tuple every cycle — and on the
        layout, so a row added or dropped since invalidates it.
        One-consumer lookups bypass it, so a late reading does not
        evict the roster.
        """
        cached = self._index_cache
        if (
            cached is not None
            and cached[0] is consumer_ids
            and cached[1] == self._layout
        ):
            return cached[2]
        if create:
            self._add_rows(consumer_ids)
        rows = self._rows
        missing = [cid for cid in consumer_ids if cid not in rows]
        if missing:
            raise DataError(f"no readings stored for {missing[0]!r}")
        index = np.fromiter(
            (rows[cid] for cid in consumer_ids),
            dtype=np.int64,
            count=len(consumer_ids),
        )
        if isinstance(consumer_ids, tuple) and len(consumer_ids) > 1:
            self._index_cache = (consumer_ids, self._layout, index)
        return index

    @staticmethod
    def _check(consumer_ids: Sequence[str], values: np.ndarray) -> None:
        """Check values (an equal share per consumer, in order) with one
        mask: NaN is a gap, an inf or a negative raises
        :class:`MeteringError`."""
        bad = np.isinf(values) | (values < 0)
        if bad.any():
            first = int(np.argmax(bad))
            owner = consumer_ids[first // (values.size // len(consumer_ids))]
            raise MeteringError(
                f"reading for {owner!r} must be finite and >= 0 or a NaN "
                f"gap, got {values.flat[first]}"
            )

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------

    def append_column(
        self, consumer_ids: Sequence[str], values: object
    ) -> None:
        """Append one polling cycle: ``values[i]`` lands in
        ``consumer_ids[i]``'s next slot, NaN for a gap.

        A consumer seen for the first time gets a new row.  The whole
        column is checked with one mask before anything is written.
        """
        column = np.asarray(values, dtype=float).ravel()
        if column.size != len(consumer_ids):
            raise DataError(
                f"column has {column.size} values for "
                f"{len(consumer_ids)} consumers"
            )
        if not column.size:
            return
        self._check(consumer_ids, column)
        rows = self._row_index(consumer_ids, create=True)
        slots = self._lengths[rows]
        self._reserve(0, int(slots.max()) + 1)
        self._matrix[rows, slots] = column
        self._lengths[rows] = slots + 1

    @staticmethod
    def _validated(consumer_id: str, reading: float) -> float:
        value = float(reading)
        if not math.isfinite(value):
            raise MeteringError(
                f"reading for {consumer_id!r} must be finite, got {value}; "
                "a missing reading is a NaN written with append_column()"
            )
        if value < 0:
            raise MeteringError(
                f"reading for {consumer_id!r} must be >= 0, got {value}"
            )
        return value

    def append(self, consumer_id: str, reading: float) -> None:
        """Record one reading (never a NaN) for the next time period."""
        self.append_column((consumer_id,), (self._validated(consumer_id, reading),))

    def extend(self, consumer_id: str, readings: np.ndarray) -> None:
        """Record a batch of consecutive readings (NaN refused)."""
        for value in np.asarray(readings, dtype=float).ravel():
            self.append(consumer_id, value)

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
        self._add_rows((consumer_id,))
        row = self._rows[consumer_id]
        if slot < self._lengths[row]:
            self._matrix[row, slot] = value
            registry = (
                self.metrics if self.metrics is not None else global_registry()
            )
            registry.counter(
                DUPLICATE_METRIC,
                "Re-delivered (consumer, slot) readings absorbed "
                "idempotently (last-write-wins).",
            ).inc()
            return False
        self._reserve(0, slot + 1)
        self._matrix[row, slot] = value
        self._lengths[row] = slot + 1
        return True

    def load(self, consumer_id: str, readings: object) -> None:
        """Install a consumer's whole series, replacing any it had.

        The restore and shard-adoption path: ``readings`` is a series
        another store handed out (NaN gaps allowed).
        """
        series = np.asarray(readings, dtype=float).ravel()
        if series.size:
            self._check((consumer_id,), series)
        self._add_rows((consumer_id,))
        row = self._rows[consumer_id]
        self._reserve(0, series.size)
        self._matrix[row] = np.nan
        self._matrix[row, : series.size] = series
        self._lengths[row] = series.size

    def clear(self, consumer_id: str) -> None:
        """Drop a consumer's entire series (quarantine eviction)."""
        row = self._rows.pop(consumer_id, None)
        if row is None:
            return
        self._matrix[row] = np.nan
        self._lengths[row] = 0
        self._free.append(row)
        self._layout += 1

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------

    def consumers(self) -> tuple[str, ...]:
        return tuple(self._rows)

    def length(self, consumer_id: str) -> int:
        row = self._rows.get(consumer_id)
        return 0 if row is None else int(self._lengths[row])

    def reading(self, consumer_id: str, slot: int) -> float:
        """The value stored at one slot (NaN for a gap or an unwritten
        slot)."""
        row = self._rows.get(consumer_id)
        if row is None or not 0 <= slot < self._lengths[row]:
            return math.nan
        return float(self._matrix[row, slot])

    def series(self, consumer_id: str) -> np.ndarray:
        """Full reading series for a consumer as a float array (a copy)."""
        row = self._rows.get(consumer_id)
        if row is None or not self._lengths[row]:
            raise DataError(f"no readings stored for {consumer_id!r}")
        return self._view(row).copy()

    def items(self) -> Iterator[tuple[str, np.ndarray]]:
        """``(consumer id, series)`` pairs in :meth:`consumers` order;
        each series is a copy."""
        for cid, row in self._rows.items():
            yield cid, self._view(row).copy()

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

    def _week_rows(
        self,
        consumer_ids: Sequence[str],
        week_index: int,
        slots_per_week: int,
    ) -> tuple[np.ndarray, int]:
        """Rows of consumers that all hold a complete week, and the
        week's first slot."""
        start = int(week_index) * slots_per_week
        end = start + slots_per_week
        if week_index >= 0 and all(cid in self._rows for cid in consumer_ids):
            rows = self._row_index(consumer_ids)
            if not rows.size or int(self._lengths[rows].min()) >= end:
                return rows, start
        short = next(
            (cid for cid in consumer_ids
             if week_index < 0 or self.length(cid) < end),
            None,
        )
        raise DataError(f"{short!r} has no complete week {week_index}")

    def week_block(
        self,
        consumer_ids: Sequence[str],
        week_index: int,
        slots_per_week: int = SLOTS_PER_WEEK,
    ) -> np.ndarray:
        """One recorded week of many consumers as a
        ``(len(consumer_ids), slots_per_week)`` array (a copy)."""
        rows, start = self._week_rows(consumer_ids, week_index, slots_per_week)
        return self._matrix[rows, start : start + slots_per_week]

    # ------------------------------------------------------------------
    # Week write-back (gap repair)
    # ------------------------------------------------------------------

    def write_week_block(
        self,
        consumer_ids: Sequence[str],
        week_index: int,
        block: np.ndarray,
        slots_per_week: int = SLOTS_PER_WEEK,
    ) -> None:
        """Replace one recorded week of many consumers at once.

        Part of the gap-repair path: after interpolation fills short
        gaps, the repaired weeks are written back so training and
        checkpoints see the repaired series.  Values must be finite and
        non-negative or NaN (residual gaps are allowed to remain).
        """
        values = np.asarray(block, dtype=float)
        if values.shape != (len(consumer_ids), slots_per_week):
            raise DataError(
                f"repaired weeks must have shape "
                f"({len(consumer_ids)}, {slots_per_week}), got {values.shape}"
            )
        if values.size:
            self._check(consumer_ids, values)
        rows, start = self._week_rows(consumer_ids, week_index, slots_per_week)
        self._matrix[rows, start : start + slots_per_week] = values

    # ------------------------------------------------------------------
    # Checkpoint state
    # ------------------------------------------------------------------

    def state_dict(self) -> dict:
        """The store as ids (in order), lengths and one float64 block."""
        ids = tuple(self._rows)
        rows = np.fromiter(
            (self._rows[cid] for cid in ids), dtype=np.int64, count=len(ids)
        )
        lengths = self._lengths[rows].copy()
        width = int(lengths.max()) if lengths.size else 0
        return {
            "ids": ids,
            "lengths": lengths,
            "matrix": self._matrix[rows, :width],
        }

    def load_state(self, state: Mapping) -> None:
        """Install a :meth:`state_dict` into this (empty) store."""
        ids = tuple(state["ids"])
        lengths = np.asarray(state["lengths"], dtype=np.int64)
        matrix = np.asarray(state["matrix"], dtype=float)
        self._add_rows(ids)
        self._reserve(0, matrix.shape[1])
        rows = self._row_index(ids)
        self._matrix[rows, : matrix.shape[1]] = matrix
        self._lengths[rows] = lengths
