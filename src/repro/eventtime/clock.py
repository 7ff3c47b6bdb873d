"""Slot clock: the single source of truth for slot arithmetic.

F-DETA's detector operates on half-hour *slots* (336 per week), but the
delivery layer reasons about *timestamps*: when a meter stamped a reading
(event time) versus when the head-end received it (processing time).
Before this module, each subsystem did its own slot arithmetic inline —
the quarantine firewall compared a reading's declared slot against the
polling cycle with ad-hoc comparisons, and nothing agreed on what "one
slot of skew" meant.  :class:`SlotClock` centralises the arithmetic
so the event-time ingestor, the service and the firewall all share one
definition of event time.  Every run path stamps readings with slot
indices, so the clock never converts a wall-clock timestamp.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.timeseries.seasonal import SLOTS_PER_WEEK


@dataclass(frozen=True)
class SlotClock:
    """Week and skew arithmetic over F-DETA's half-hour slots.

    ``epoch`` is the wall-clock time (seconds) of slot 0's left edge and
    ``slot_seconds`` the slot width (1800 s = the paper's half-hour
    resolution); slots are numbered 0, 1, 2, ... from the epoch.
    """

    slot_seconds: float = 1800.0
    epoch: float = 0.0

    def __post_init__(self) -> None:
        if not self.slot_seconds > 0:
            raise ConfigurationError(
                f"slot_seconds must be positive, got {self.slot_seconds}"
            )

    def week_of(self, slot: int) -> int:
        """The week index containing ``slot``."""
        return int(slot) // SLOTS_PER_WEEK

    def slot_in_week(self, slot: int) -> int:
        """Position of ``slot`` within its week (0..335)."""
        return int(slot) % SLOTS_PER_WEEK

    def skew(self, declared_slot: int, reference_slot: int) -> int:
        """Slots of clock skew: positive means the declaring clock runs
        *ahead* of the reference (the reading claims a future slot)."""
        return int(declared_slot) - int(reference_slot)
