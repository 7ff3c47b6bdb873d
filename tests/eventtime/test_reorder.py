"""ReorderBuffer: park out-of-order readings, release contiguous runs."""

from repro.eventtime import OfferOutcome, ReorderBuffer, StampedReading


def _offer(buffer, cid, slot, value=1.0):
    return buffer.offer(StampedReading(cid, slot, value))


class TestOffer:
    def test_first_reading_buffers(self):
        buffer = ReorderBuffer()
        assert _offer(buffer, "c1", 5) is OfferOutcome.BUFFERED
        assert buffer.pending_readings == 1

    def test_duplicate_key_updates_last_write_wins(self):
        buffer = ReorderBuffer()
        _offer(buffer, "c1", 5, 1.0)
        assert _offer(buffer, "c1", 5, 2.0) is OfferOutcome.UPDATED
        assert buffer.pending_readings == 1  # updates don't grow occupancy
        released = list(buffer.flush())  # slots 0-4 release empty
        assert released[-1] == (5, {"c1": 2.0})

    def test_released_slot_is_late(self):
        buffer = ReorderBuffer()
        _offer(buffer, "c1", 0)
        list(buffer.release_until(0))
        assert _offer(buffer, "c2", 0) is OfferOutcome.LATE

    def test_capacity_rejects_not_drops(self):
        buffer = ReorderBuffer(max_pending=2)
        assert _offer(buffer, "c1", 0) is OfferOutcome.BUFFERED
        assert _offer(buffer, "c2", 1) is OfferOutcome.BUFFERED
        assert _offer(buffer, "c3", 2) is OfferOutcome.REJECTED
        # Updates to an existing key still land at capacity.
        assert _offer(buffer, "c1", 0, 9.0) is OfferOutcome.UPDATED


class TestRelease:
    def test_release_is_contiguous_with_empty_slots(self):
        buffer = ReorderBuffer()
        _offer(buffer, "c1", 0)
        _offer(buffer, "c1", 3)  # slots 1 and 2 never reported
        released = list(buffer.release_until(3))
        assert [slot for slot, _ in released] == [0, 1, 2, 3]
        assert released[1][1] == {} and released[2][1] == {}
        assert buffer.pending_readings == 0

    def test_release_stops_at_watermark(self):
        buffer = ReorderBuffer()
        _offer(buffer, "c1", 0)
        _offer(buffer, "c1", 5)
        assert [s for s, _ in buffer.release_until(2)] == [0, 1, 2]
        assert buffer.next_slot == 3
        assert buffer.pending_readings == 1  # slot 5 still parked

    def test_negative_watermark_releases_nothing(self):
        buffer = ReorderBuffer()
        _offer(buffer, "c1", 0)
        assert list(buffer.release_until(-1)) == []

    def test_flush_releases_through_newest(self):
        buffer = ReorderBuffer()
        _offer(buffer, "c1", 2)
        _offer(buffer, "c1", 4)
        assert [s for s, _ in buffer.flush()] == [0, 1, 2, 3, 4]
        assert list(buffer.flush()) == []  # idempotent when empty

    def test_merged_slot_collects_all_consumers(self):
        buffer = ReorderBuffer()
        _offer(buffer, "b", 0, 2.0)
        _offer(buffer, "a", 0, 1.0)
        ((_, readings),) = list(buffer.release_until(0))
        assert readings == {"a": 1.0, "b": 2.0}


class TestOccupancy:
    def test_span_and_pending_slots(self):
        buffer = ReorderBuffer()
        assert buffer.span == 0
        _offer(buffer, "c1", 2)
        _offer(buffer, "c1", 7)
        assert len(buffer.pending) == 2
        assert buffer.span == 8  # cursor 0 through newest slot 7

    def test_state_roundtrip(self):
        buffer = ReorderBuffer(max_pending=10)
        _offer(buffer, "c1", 0)
        _offer(buffer, "c2", 4, 3.5)
        list(buffer.release_until(0))
        restored = ReorderBuffer.from_state(buffer.state_dict())
        assert restored.next_slot == buffer.next_slot
        assert restored.pending == buffer.pending
        assert restored.pending_readings == buffer.pending_readings
        assert restored.max_pending == buffer.max_pending
