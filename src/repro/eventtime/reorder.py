"""Bounded reorder buffer: holds out-of-order readings until their slot closes.

Deliveries from a scrambled AMI mesh arrive keyed by *event-time slot*,
not in slot order.  The buffer parks each reading under its slot and, as
the watermark advances, releases slot-contiguous runs to the scoring
service — including explicitly *empty* slots, so the polling clock always
advances and a silent meter becomes a gap rather than a stall.

Offers are rejected (never silently dropped) once the capacity bound is
reached, mirroring the reject-not-drop contract of
:class:`~repro.loadcontrol.queue.BoundedCycleQueue`; occupancy is exposed
so an ingestor can feed it into backpressure.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterator


@dataclass(frozen=True)
class StampedReading:
    """One meter reading stamped with its event-time slot.

    ``slot`` is event time (when the energy was consumed); the moment
    the reading is offered to the buffer is its processing time.
    """

    consumer_id: str
    slot: int
    value: float


class OfferOutcome(enum.Enum):
    """What happened to a reading offered to the buffer."""

    BUFFERED = "buffered"  # parked in an open slot, first value for its key
    UPDATED = "updated"  # duplicate (consumer, slot): last write wins
    LATE = "late"  # slot already released — caller must reconcile/quarantine
    REJECTED = "rejected"  # capacity bound hit; reading not admitted


@dataclass
class ReorderBuffer:
    """Holds early/out-of-order readings; releases slot-contiguous runs.

    ``next_slot`` is the release cursor: the lowest slot not yet handed
    to the consumer.  Offers for slots below it come back ``LATE`` so
    the ingestor can route them to reconciliation or quarantine.
    """

    max_pending: int | None = None
    next_slot: int = 0
    pending: dict[int, dict[str, float]] = field(default_factory=dict)
    _reading_count: int = 0

    def offer(self, reading: StampedReading) -> OfferOutcome:
        """Admit one stamped reading; never raises on overflow."""
        slot = int(reading.slot)
        if slot < self.next_slot:
            return OfferOutcome.LATE
        bucket = self.pending.get(slot)
        if bucket is not None and reading.consumer_id in bucket:
            bucket[reading.consumer_id] = float(reading.value)
            return OfferOutcome.UPDATED
        if (
            self.max_pending is not None
            and self._reading_count >= self.max_pending
        ):
            return OfferOutcome.REJECTED
        if bucket is None:
            bucket = self.pending.setdefault(slot, {})
        bucket[reading.consumer_id] = float(reading.value)
        self._reading_count += 1
        return OfferOutcome.BUFFERED

    def release_until(
        self, watermark: int
    ) -> Iterator[tuple[int, dict[str, float]]]:
        """Yield ``(slot, readings)`` for every slot up to ``watermark``.

        Slots are released contiguously from the cursor; a slot with no
        buffered readings is released as an empty dict so the consumer
        sees every slot exactly once, in order.
        """
        while self.next_slot <= watermark:
            slot = self.next_slot
            self.next_slot += 1
            readings = self.pending.pop(slot, {})
            self._reading_count -= len(readings)
            yield slot, readings

    def flush(self) -> Iterator[tuple[int, dict[str, float]]]:
        """Release everything still pending, in slot order (end of run)."""
        if self.pending:
            yield from self.release_until(max(self.pending))

    @property
    def pending_readings(self) -> int:
        """Readings currently parked (the occupancy fed to backpressure)."""
        return self._reading_count

    @property
    def span(self) -> int:
        """Slots between the release cursor and the newest buffered slot."""
        if not self.pending:
            return 0
        return max(self.pending) - self.next_slot + 1

    def state_dict(self) -> dict:
        return {
            "max_pending": self.max_pending,
            "next_slot": self.next_slot,
            "pending": {
                str(slot): dict(bucket) for slot, bucket in self.pending.items()
            },
        }

    @classmethod
    def from_state(cls, state: dict) -> "ReorderBuffer":
        pending = {
            int(slot): {str(c): float(v) for c, v in bucket.items()}
            for slot, bucket in state["pending"].items()
        }
        max_pending = state["max_pending"]
        buffer = cls(
            max_pending=None if max_pending is None else int(max_pending),
            next_slot=int(state["next_slot"]),
            pending=pending,
        )
        buffer._reading_count = sum(len(b) for b in pending.values())
        return buffer
