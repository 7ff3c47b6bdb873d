"""Configuration for the event-time ingestion layer."""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.timeseries.seasonal import SLOTS_PER_WEEK


@dataclass(frozen=True)
class EventTimeConfig:
    """Tuning for watermarking, reordering and late-reading reconciliation.

    ``lateness_slots``
        The watermark's lateness bound: the low watermark trails the
        newest slot any meter has reported by this many slots, so a
        reading may arrive up to ``lateness_slots`` slots out of order
        and still be merged into its slot before the slot is scored.

    ``grace_weeks``
        How long after a week is scored it remains open for
        *reconciliation*.  A reading for week *w* that arrives after the
        watermark has closed its slot, but while fewer than
        ``(w + 1 + grace_weeks)`` weeks' worth of slots have been
        released, re-opens the week: the histogram and KLD verdict are
        recomputed and any verdict change is published as a versioned
        :class:`~repro.eventtime.revision.VerdictRevision`.  Readings
        arriving after the grace window are quarantined as ``too_late``.

    ``max_pending_readings``
        Capacity bound on the reorder buffer (``None`` = unbounded).
        Offers beyond the bound are rejected, never silently dropped —
        the same reject-not-drop contract as
        :class:`~repro.loadcontrol.queue.BoundedCycleQueue`.
    """

    lateness_slots: int = 48
    grace_weeks: int = 1
    max_pending_readings: int | None = None

    def __post_init__(self) -> None:
        if self.lateness_slots < 0:
            raise ConfigurationError(
                f"lateness_slots must be >= 0, got {self.lateness_slots}"
            )
        if self.grace_weeks < 0:
            raise ConfigurationError(
                f"grace_weeks must be >= 0, got {self.grace_weeks}"
            )
        if self.max_pending_readings is not None and self.max_pending_readings < 1:
            raise ConfigurationError(
                "max_pending_readings must be >= 1 when bounded, "
                f"got {self.max_pending_readings}"
            )

    @property
    def grace_slots(self) -> int:
        """The grace window expressed in slots."""
        return self.grace_weeks * SLOTS_PER_WEEK

    def finalization_slot(self, week_index: int) -> int:
        """Slots that must be *released* before ``week_index`` is final.

        Once this many slots have been released to the scoring service,
        the week can no longer be reconciled: late readings for it are
        quarantined as ``too_late`` and its verdict becomes eligible for
        detector training.  The schedule is a pure function of released
        slot count, so in-order and scrambled runs finalize every week
        at the same point in their progress.
        """
        return (int(week_index) + 1 + self.grace_weeks) * SLOTS_PER_WEEK
