"""Unit tests for the reading store."""

import numpy as np
import pytest

from repro.errors import DataError, MeteringError
from repro.metering.store import ReadingStore
from repro.timeseries.seasonal import SLOTS_PER_WEEK


class TestReadingStore:
    def test_append_and_series(self):
        store = ReadingStore()
        store.append("c1", 1.0)
        store.append("c1", 2.0)
        assert np.array_equal(store.series("c1"), [1.0, 2.0])

    def test_extend(self, rng):
        store = ReadingStore()
        values = rng.uniform(0, 5, size=10)
        store.extend("c1", values)
        assert np.allclose(store.series("c1"), values)

    def test_rejects_negative_reading(self):
        store = ReadingStore()
        with pytest.raises(MeteringError):
            store.append("c1", -0.1)

    def test_series_unknown_consumer(self):
        with pytest.raises(DataError):
            ReadingStore().series("ghost")

    def test_week_matrix_shape(self, rng):
        store = ReadingStore()
        store.extend("c1", rng.uniform(0, 2, size=3 * SLOTS_PER_WEEK + 5))
        matrix = store.week_matrix("c1")
        assert matrix.shape == (3, SLOTS_PER_WEEK)

    def test_week_matrix_needs_full_week(self, rng):
        store = ReadingStore()
        store.extend("c1", rng.uniform(0, 2, size=100))
        with pytest.raises(DataError):
            store.week_matrix("c1")

    def test_latest_week(self, rng):
        store = ReadingStore()
        first = rng.uniform(0, 2, size=SLOTS_PER_WEEK)
        second = rng.uniform(0, 2, size=SLOTS_PER_WEEK)
        store.extend("c1", first)
        store.extend("c1", second)
        assert np.allclose(store.week_matrix("c1")[-1], second)

    def test_consumers_and_length(self):
        store = ReadingStore()
        store.append("a", 1.0)
        store.append("b", 2.0)
        assert set(store.consumers()) == {"a", "b"}
        assert store.length("a") == 1
        assert store.length("missing") == 0


class TestGapMarkers:
    """The explicit gap API vs. the strict append path."""

    def test_append_rejects_nan(self):
        store = ReadingStore()
        with pytest.raises(MeteringError, match="append_column"):
            store.append("c1", float("nan"))

    def test_append_rejects_inf(self):
        store = ReadingStore()
        with pytest.raises(MeteringError):
            store.append("c1", float("inf"))

    def test_extend_rejects_nan_batch(self):
        store = ReadingStore()
        with pytest.raises(MeteringError):
            store.extend("c1", np.array([1.0, np.nan, 2.0]))

    def test_append_gap_keeps_series_aligned(self):
        store = ReadingStore()
        store.append("c1", 1.0)
        store.append_column(("c1",), (np.nan,))
        store.append("c1", 3.0)
        series = store.series("c1")
        assert series.size == 3
        assert np.isnan(series[1])
        assert series[2] == 3.0

    def test_gap_count(self):
        store = ReadingStore()
        store.append("c1", 1.0)
        assert int(np.isnan(store.series("c1")).sum()) == 0
        store.append_column(("c1",), (np.nan,))
        store.append_column(("c1",), (np.nan,))
        assert int(np.isnan(store.series("c1")).sum()) == 2

    def test_clear_drops_series(self):
        store = ReadingStore()
        store.append("c1", 1.0)
        store.clear("c1")
        assert store.length("c1") == 0
        assert "c1" not in store.consumers()
        store.clear("never-existed")  # idempotent


class TestOverwriteWeek:
    """One consumer's week written back through write_week_block."""

    def _store_with_weeks(self, rng, weeks=2):
        store = ReadingStore()
        store.extend("c1", rng.uniform(0, 2, size=weeks * SLOTS_PER_WEEK))
        return store

    def test_overwrites_in_place(self, rng):
        store = self._store_with_weeks(rng)
        repaired = np.full(SLOTS_PER_WEEK, 0.5)
        store.write_week_block(("c1",), 0, repaired[None])
        assert np.array_equal(store.week_matrix("c1")[0], repaired)

    def test_residual_nan_gaps_allowed(self, rng):
        store = self._store_with_weeks(rng)
        week = np.full(SLOTS_PER_WEEK, 0.5)
        week[10:16] = np.nan
        store.write_week_block(("c1",), 1, week[None])
        assert int(np.isnan(store.series("c1")).sum()) == 6

    def test_rejects_wrong_size(self, rng):
        store = self._store_with_weeks(rng)
        with pytest.raises(DataError):
            store.write_week_block(("c1",), 0, np.ones((1, 10)))

    def test_rejects_negative_and_inf(self, rng):
        store = self._store_with_weeks(rng)
        bad = np.full(SLOTS_PER_WEEK, 0.5)
        bad[0] = -1.0
        with pytest.raises(MeteringError):
            store.write_week_block(("c1",), 0, bad[None])
        bad[0] = np.inf
        with pytest.raises(MeteringError):
            store.write_week_block(("c1",), 0, bad[None])

    def test_rejects_out_of_range_week(self, rng):
        store = self._store_with_weeks(rng, weeks=1)
        with pytest.raises(DataError):
            store.write_week_block(("c1",), 1, np.ones((1, SLOTS_PER_WEEK)))
        with pytest.raises(DataError):
            store.write_week_block(("ghost",), 0, np.ones((1, SLOTS_PER_WEEK)))


class TestSlotAddressedRecord:
    """record(): idempotent last-write-wins re-delivery absorption."""

    def test_record_extends_like_append(self):
        store = ReadingStore()
        assert store.record("c1", 0, 1.0) is True
        assert store.record("c1", 1, 2.0) is True
        assert np.array_equal(store.series("c1"), [1.0, 2.0])

    def test_record_past_end_fills_gaps(self):
        store = ReadingStore()
        assert store.record("c1", 3, 4.0) is True
        series = store.series("c1")
        assert series.size == 4
        assert np.isnan(series[:3]).all()
        assert series[3] == 4.0

    def test_duplicate_slot_overwrites_in_place(self):
        store = ReadingStore()
        store.record("c1", 0, 1.0)
        assert store.record("c1", 0, 9.0) is False  # last write wins
        assert store.length("c1") == 1
        assert store.series("c1")[0] == 9.0

    def test_duplicate_fills_a_gap_without_counting_length(self):
        store = ReadingStore()
        store.append_column(("c1",), (np.nan,))
        assert store.record("c1", 0, 5.0) is False
        assert store.length("c1") == 1
        assert int(np.isnan(store.series("c1")).sum()) == 0

    def test_duplicates_counted_in_metric(self):
        from repro.observability.metrics import MetricsRegistry

        registry = MetricsRegistry()
        store = ReadingStore(metrics=registry)
        store.record("c1", 0, 1.0)
        store.record("c1", 0, 2.0)
        store.record("c1", 0, 3.0)
        counter = registry.counter("fdeta_readings_duplicate_total")
        assert counter.value() == 2.0

    def test_duplicates_fall_back_to_global_registry(self):
        from repro.observability.metrics import MetricsRegistry, use_registry

        registry = MetricsRegistry()
        store = ReadingStore()  # no registry of its own
        with use_registry(registry):
            store.record("c1", 0, 1.0)
            store.record("c1", 0, 2.0)
        assert (
            registry.counter("fdeta_readings_duplicate_total").value() == 1.0
        )

    def test_record_validates_like_append(self):
        store = ReadingStore()
        with pytest.raises(MeteringError):
            store.record("c1", 0, float("nan"))
        with pytest.raises(MeteringError):
            store.record("c1", 0, -1.0)
        with pytest.raises(DataError):
            store.record("c1", -1, 1.0)


class TestColumnWrite:
    """append_column(): one polling cycle for many consumers at once."""

    def test_column_lands_in_each_consumers_next_slot(self):
        store = ReadingStore()
        store.append_column(("a", "b"), [1.0, np.nan])
        store.append_column(("a", "b"), [2.0, 3.0])
        assert store.consumers() == ("a", "b")
        assert np.array_equal(store.series("a"), [1.0, 2.0])
        assert np.array_equal(store.series("b"), [np.nan, 3.0], equal_nan=True)
        assert int(np.isnan(store.series("b")).sum()) == 1

    def test_rejects_inf_and_negative_with_one_mask(self):
        store = ReadingStore()
        store.append_column(("a", "b"), [1.0, 2.0])
        for bad in ([np.inf, 1.0], [1.0, -0.5], [-np.inf, np.nan]):
            with pytest.raises(MeteringError):
                store.append_column(("a", "b"), bad)
        # A rejected column writes nothing.
        assert store.length("a") == store.length("b") == 1

    def test_rejects_a_column_of_the_wrong_size(self):
        with pytest.raises(DataError):
            ReadingStore().append_column(("a", "b"), [1.0])

    def test_empty_column_is_a_no_op(self):
        store = ReadingStore()
        store.append_column((), [])
        assert store.consumers() == ()

    def test_consumers_of_unequal_length_each_advance_one_slot(self):
        store = ReadingStore()
        store.record("a", 4, 1.0)
        store.append_column(("a", "b"), [2.0, 3.0])
        assert store.length("a") == 6
        assert store.length("b") == 1
        assert store.series("a")[5] == 2.0

    def test_slot_axis_grows_past_the_first_week(self, rng):
        store = ReadingStore()
        ids = ("a", "b", "c")
        columns = rng.uniform(0, 2, size=(3 * SLOTS_PER_WEEK + 7, 3))
        for column in columns:
            store.append_column(ids, column)
        for i, cid in enumerate(ids):
            assert np.array_equal(store.series(cid), columns[:, i])

    def test_cleared_row_is_reused_without_stale_readings(self):
        store = ReadingStore()
        store.append_column(("a", "b"), [1.0, 2.0])
        store.append_column(("a", "b"), [1.5, 2.5])
        store.clear("a")
        store.append_column(("c",), [9.0])
        assert store.consumers() == ("b", "c")
        assert np.array_equal(store.series("c"), [9.0])
        assert np.array_equal(store.series("b"), [2.0, 2.5])


def _week(store, consumer_id, week_index):
    return store.week_block((consumer_id,), week_index)[0]


class TestMatrixReads:
    def _store(self, rng, weeks=2):
        store = ReadingStore()
        values = rng.uniform(0, 2, size=(weeks * SLOTS_PER_WEEK, 2))
        for column in values:
            store.append_column(("a", "b"), column)
        return store, values

    def test_week_block_is_a_copy(self, rng):
        store, values = self._store(rng)
        block = store.week_block(("b", "a"), 1)
        assert block.shape == (2, SLOTS_PER_WEEK)
        assert np.array_equal(block[0], values[SLOTS_PER_WEEK:, 1])
        block[:] = 0.0
        assert np.array_equal(_week(store, "a", 1), values[SLOTS_PER_WEEK:, 0])

    def test_week_block_needs_every_week_complete(self, rng):
        store, _ = self._store(rng, weeks=1)
        with pytest.raises(DataError, match="'a' has no complete week 1"):
            store.week_block(("a", "b"), 1)
        with pytest.raises(DataError, match="ghost"):
            store.week_block(("a", "ghost"), 0)

    def test_write_week_block_replaces_only_that_week(self, rng):
        store, values = self._store(rng)
        repaired = np.full((1, SLOTS_PER_WEEK), 0.5)
        store.write_week_block(("b",), 0, repaired)
        assert np.array_equal(_week(store, "b", 0), repaired[0])
        assert np.array_equal(_week(store, "b", 1), values[SLOTS_PER_WEEK:, 1])
        assert np.array_equal(_week(store, "a", 0), values[:SLOTS_PER_WEEK, 0])

    def test_series_view_is_read_only(self, rng):
        store, values = self._store(rng)
        view = store._series["a"]
        assert list(store._series) == ["a", "b"]
        with pytest.raises(ValueError):
            view[0] = 1.0
        copy = store.series("a")
        copy[0] = -1.0
        assert store.series("a")[0] == values[0, 0]

    def test_state_round_trip(self, rng):
        store, _ = self._store(rng)
        store.record("a", 2 * SLOTS_PER_WEEK + 3, 1.0)
        restored = ReadingStore()
        restored.load_state(store.state_dict())
        assert restored.consumers() == store.consumers()
        for cid in store.consumers():
            assert np.array_equal(
                restored.series(cid), store.series(cid), equal_nan=True
            )
