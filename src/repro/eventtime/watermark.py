"""Per-consumer low-watermark tracking with a bounded lateness allowance.

The *low watermark* is the delivery layer's promise to the detector: every
slot at or below the watermark has been given its full chance to fill in,
so scoring it will not be invalidated by a merely out-of-order reading.
The tracker keeps a per-consumer high mark (the newest event-time slot
each meter has reported) and derives the fleet watermark as the fleet's
highest mark minus the configured lateness bound — a reading can arrive
up to ``lateness_slots`` behind the fleet's frontier and still land in an
open slot.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class WatermarkTracker:
    """Tracks event-time progress and derives the fleet low watermark.

    ``watermark`` is the newest slot considered *closed*: all slots
    ``<= watermark`` may be released for scoring.  Before any reading is
    observed the watermark is ``-1`` (nothing closed).
    """

    lateness_slots: int
    high_marks: dict[str, int] = field(default_factory=dict)

    def observe(self, consumer_id: str, slot: int) -> None:
        """Advance ``consumer_id``'s high mark to ``slot`` if newer."""
        slot = int(slot)
        current = self.high_marks.get(consumer_id)
        if current is None or slot > current:
            self.high_marks[consumer_id] = slot

    @property
    def frontier(self) -> int:
        """The newest event-time slot observed fleet-wide (-1 if none)."""
        return max(self.high_marks.values(), default=-1)

    @property
    def watermark(self) -> int:
        """Newest closed slot: frontier minus the lateness bound."""
        return self.frontier - self.lateness_slots

    def consumer_lag(self, consumer_id: str) -> int:
        """How many slots ``consumer_id`` trails the fleet frontier.

        Unobserved consumers trail by the whole frontier (plus one, so
        a never-seen meter at frontier 0 already shows lag 1).
        """
        mark = self.high_marks.get(consumer_id, -1)
        return self.frontier - mark

    def state_dict(self) -> dict:
        return {
            "lateness_slots": self.lateness_slots,
            "high_marks": dict(self.high_marks),
        }

    @classmethod
    def from_state(cls, state: dict) -> "WatermarkTracker":
        return cls(
            lateness_slots=int(state["lateness_slots"]),
            high_marks={str(k): int(v) for k, v in state["high_marks"].items()},
        )
