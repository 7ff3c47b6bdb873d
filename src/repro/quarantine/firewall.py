"""Reading-integrity firewall in front of the detection pipeline.

F-DETA's detectors assume every reading that reaches them is a finite,
non-negative kWh value recorded in its true half-hour slot.  A
production head-end sees everything else: NaN from corrupted frames,
negative values from failed parses, physically impossible magnitudes
from attackers probing the detector, re-delivered duplicates from
store-and-forward relays, readings stamped with a skewed clock, and the
repeated local-time hour of a DST fall-back.  The firewall screens each
polling cycle *before* ingestion, routing rejects to a
:class:`~repro.quarantine.store.QuarantineStore` with a distinct
:class:`~repro.quarantine.store.QuarantineReason` per malformed-reading
class — so garbage becomes evidence instead of detector state.

Every :class:`~repro.core.online.TheftMonitoringService` screens its
cycles here (``ReadingFirewall()`` unless given another), and this is
the only check of reading values on the ingest path.  Accepted readings
pass through unchanged; rejected consumers simply vanish from the
cycle, which the service records as explicit gaps (keeping series
slot-aligned and counting against the consumer's circuit breaker).  No
quarantined value ever reaches detector ``fit``/``score``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping

from repro.errors import ConfigurationError
from repro.quarantine.store import (
    QuarantinedReading,
    QuarantineReason,
    QuarantineStore,
)

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.observability.events import EventLogger
    from repro.observability.metrics import MetricsRegistry

#: Metric family counting rejects by reason code.
QUARANTINE_METRIC = "fdeta_readings_quarantined_total"


@dataclass(frozen=True)
class MeterReading:
    """A reading carrying its meter-declared slot stamp.

    Plain ``float`` cycle values are always accepted by the firewall's
    value checks; wrapping a value in :class:`MeterReading` additionally
    enables the slot-consistency checks: ``slot`` is the polling period
    the *meter* claims the reading belongs to, and ``fold`` marks a
    reading taken during the repeated hour of a DST fall-back
    transition (the same local slot occurs twice; the second occurrence
    is ambiguous and must not overwrite the first).
    """

    value: float
    slot: int | None = None
    fold: bool = False


@dataclass(frozen=True)
class FirewallPolicy:
    """Knobs for the integrity checks.

    ``max_reading_kwh`` is the physical ceiling for one half-hour slot;
    anything above it is quarantined as ``out_of_range`` (a residential
    feeder cannot deliver it, so the value is garbage or probing).
    """

    max_reading_kwh: float = 1000.0

    def __post_init__(self) -> None:
        if not self.max_reading_kwh > 0 or not math.isfinite(
            self.max_reading_kwh
        ):
            raise ConfigurationError(
                "max_reading_kwh must be a positive finite number, "
                f"got {self.max_reading_kwh}"
            )


@dataclass
class ReadingFirewall:
    """Screens polling cycles, quarantining malformed readings.

    The firewall is pure state (policy + quarantine store) and is
    picklable, so it rides monitoring-service checkpoints and its
    evidence survives ``--resume``/``--recover``.
    """

    policy: FirewallPolicy = field(default_factory=FirewallPolicy)
    store: QuarantineStore = field(default_factory=QuarantineStore)
    screened_cycles: int = 0

    def screen(
        self,
        reported: Mapping[str, float | MeterReading],
        cycle: int,
        metrics: "MetricsRegistry | None" = None,
        events: "EventLogger | None" = None,
    ) -> dict[str, float]:
        """Screen one polling cycle; returns the accepted readings.

        ``cycle`` is the head-end's current polling period — the slot
        every reading in this cycle *should* belong to.  Readings are
        checked in severity order; the first failing check names the
        reason.
        """
        accepted: dict[str, float] = {}
        counter = None
        if metrics is not None:
            counter = metrics.counter(
                QUARANTINE_METRIC,
                "Readings quarantined by the integrity firewall, by "
                "reason code.",
                labels=("reason",),
            )
        for cid, raw in reported.items():
            verdict = self._check(raw, cycle)
            if verdict is None:
                accepted[cid] = (
                    float(raw.value)
                    if isinstance(raw, MeterReading)
                    else float(raw)
                )
                continue
            reason, value, slot, detail = verdict
            self.store.add(
                QuarantinedReading(
                    consumer_id=cid,
                    value=value,
                    cycle=cycle,
                    reason=reason,
                    declared_slot=slot,
                    detail=detail,
                )
            )
            if counter is not None:
                counter.inc(reason=reason.value)
            if events is not None:
                events.warning(
                    "reading_quarantined",
                    consumer=cid,
                    reason=reason.value,
                    cycle=cycle,
                    value=value,
                    declared_slot=slot,
                    detail=detail,
                )
        self.screened_cycles += 1
        return accepted

    def _check(
        self, raw: float | MeterReading, cycle: int
    ) -> tuple[QuarantineReason, float, int | None, str] | None:
        """One reading's verdict: ``None`` if clean, else the reject."""
        slot: int | None = None
        fold = False
        if isinstance(raw, MeterReading):
            slot = raw.slot
            fold = raw.fold
            raw = raw.value
        try:
            value = float(raw)
        except (TypeError, ValueError):
            return (
                QuarantineReason.NON_FINITE,
                math.nan,
                slot,
                f"unparseable value {raw!r}",
            )
        if not math.isfinite(value):
            return (
                QuarantineReason.NON_FINITE,
                value,
                slot,
                "NaN/inf reading",
            )
        if value < 0:
            return (
                QuarantineReason.NEGATIVE,
                value,
                slot,
                "negative kWh is physically impossible",
            )
        if value > self.policy.max_reading_kwh:
            return (
                QuarantineReason.OUT_OF_RANGE,
                value,
                slot,
                f"exceeds physical ceiling {self.policy.max_reading_kwh}",
            )
        if fold:
            return (
                QuarantineReason.DST_FOLD,
                value,
                slot,
                "ambiguous repeated DST fall-back slot",
            )
        if slot is not None:
            # Positive skew = the meter's clock runs ahead of the
            # head-end's (the reading claims a future slot).
            skew = slot - cycle
            if skew < 0:
                return (
                    QuarantineReason.DUPLICATE,
                    value,
                    slot,
                    f"slot {slot} already ingested (current cycle {cycle})",
                )
            if skew > 0:
                return (
                    QuarantineReason.CLOCK_SKEW,
                    value,
                    slot,
                    f"meter clock ahead: declared slot {slot} > cycle "
                    f"{cycle} (skew {skew} slots)",
                )
        return None
