"""Event-time ingestion: watermarked delivery processing for the service.

The :class:`EventTimeIngestor` sits between a scrambled delivery stream
(e.g. :class:`~repro.metering.scramble.ScramblingChannel` output) and a
:class:`~repro.core.online.TheftMonitoringService` built with an
:class:`~repro.eventtime.config.EventTimeConfig`.  Each delivered batch
of :class:`~repro.eventtime.reorder.StampedReading` is routed by event
time:

* slots still **open** (above the release cursor) are parked in the
  :class:`~repro.eventtime.reorder.ReorderBuffer`;
* as the :class:`~repro.eventtime.watermark.WatermarkTracker` advances,
  slot-contiguous runs are released to the service's ordinary
  ``ingest_cycle`` path (missing slots released as empty cycles — a
  silent meter becomes a gap, never a stall);
* readings for **released** slots whose week is still inside its grace
  window are screened and handed to
  :meth:`~repro.core.online.TheftMonitoringService.reconcile_reading`,
  which may publish a :class:`~repro.eventtime.revision.VerdictRevision`;
* readings past the grace window are quarantined as ``too_late``.

With a write-ahead log attached, every delivery batch is appended (and
the batch's processing index logged) *before* any state changes, so
:func:`replay_eventtime` reproduces the live run's watermark decisions,
releases, reconciliations, and revisions bit-identically.  Buffer
occupancy drives a :class:`~repro.loadcontrol.queue.BackpressureSignal`
attached to the service, closing the loop with load shedding.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable

from repro.errors import ConfigurationError, DataError
from repro.eventtime.reorder import OfferOutcome, ReorderBuffer, StampedReading
from repro.eventtime.watermark import WatermarkTracker
from repro.loadcontrol.queue import BackpressureSignal
from repro.timeseries.seasonal import SLOTS_PER_WEEK

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.core.online import MonitoringReport, TheftMonitoringService
    from repro.durability.wal import WALReplay, WriteAheadLog
    from repro.eventtime.revision import VerdictRevision

#: Buffer-occupancy fractions driving backpressure, mirroring
#: :class:`~repro.loadcontrol.queue.BoundedCycleQueue`'s hysteresis.
_HIGH_WATERMARK = 0.8
_LOW_WATERMARK = 0.3

@dataclass(frozen=True)
class DeliveryOutcome:
    """What one delivered batch did to the pipeline."""

    buffered: int = 0
    updated: int = 0
    reconciled: int = 0
    revisions: tuple["VerdictRevision", ...] = ()
    too_late: int = 0
    screened_out: int = 0
    rejected: tuple[StampedReading, ...] = ()
    released_slots: int = 0
    reports: tuple["MonitoringReport", ...] = ()


@dataclass
class _Counts:
    buffered: int = 0
    updated: int = 0
    reconciled: int = 0
    revisions: list = field(default_factory=list)
    too_late: int = 0
    screened_out: int = 0
    rejected: list = field(default_factory=list)
    released_slots: int = 0
    reports: list = field(default_factory=list)

    def outcome(self) -> DeliveryOutcome:
        return DeliveryOutcome(
            buffered=self.buffered,
            updated=self.updated,
            reconciled=self.reconciled,
            revisions=tuple(self.revisions),
            too_late=self.too_late,
            screened_out=self.screened_out,
            rejected=tuple(self.rejected),
            released_slots=self.released_slots,
            reports=tuple(self.reports),
        )


class EventTimeIngestor:
    """Drives a monitoring service from an out-of-order delivery stream.

    Parameters
    ----------
    service:
        A :class:`~repro.core.online.TheftMonitoringService` constructed
        with ``eventtime`` and a *declared* population — the reorder
        buffer releases slots the fleet never fully reported, so the
        roster cannot be inferred from a first cycle.
    wal:
        Optional :class:`~repro.durability.wal.WriteAheadLog`; delivery
        batches are appended before processing and synced at week
        boundaries, so a crashed run replays to the same state.

    The delivery path times its ``wal_append``, ``route``, ``release``
    and ``finish`` windows as stages of the wrapped service
    (:meth:`~repro.core.online.TheftMonitoringService.stage`), so one
    histogram family and one profile cover the whole event-time
    pipeline.
    """

    def __init__(
        self,
        service: "TheftMonitoringService",
        wal: "WriteAheadLog | None" = None,
    ) -> None:
        config = service.eventtime
        if config is None:
            raise ConfigurationError(
                "EventTimeIngestor requires a service built with an "
                "EventTimeConfig"
            )
        if service._population is None:
            raise ConfigurationError(
                "event-time ingestion requires a declared population: "
                "released slots may be partial, so the roster cannot be "
                "learned from the first cycle"
            )
        self.service = service
        self.config = config
        self.wal = wal
        self.buffer = ReorderBuffer(max_pending=config.max_pending_readings)
        self.tracker = WatermarkTracker(lateness_slots=config.lateness_slots)
        self.signal = BackpressureSignal(
            metrics=service.metrics, events=service.events
        )
        # Same attachment contract as BufferedIngestor: the service's
        # weekly scoring reads sustained pressure off this slot.
        service.backpressure = self.signal
        self.deliveries = 0
        self.finished = False

    # ------------------------------------------------------------------
    # Delivery path
    # ------------------------------------------------------------------

    def deliver(
        self, batch: Iterable[StampedReading | tuple[str, int, float]]
    ) -> DeliveryOutcome:
        """Process one delivery batch (any order, any slots)."""
        if self.finished:
            raise DataError("event-time ingestor already finished")
        readings = [
            r
            if isinstance(r, StampedReading)
            else StampedReading(str(r[0]), int(r[1]), float(r[2]))
            for r in batch
        ]
        for reading in readings:
            if reading.consumer_id not in self.service._population:
                raise DataError(
                    f"delivery carried unknown consumer "
                    f"{reading.consumer_id!r}"
                )
        index = self.deliveries
        if self.wal is not None:
            # Append-before-process: the batch must be durable before it
            # can mutate watermark or service state, so replay sees
            # exactly the deliveries the live run acted on.
            with self.service.stage("wal_append"):
                self.wal.append_delivery(
                    index,
                    ((r.consumer_id, r.slot, r.value) for r in readings),
                )
        self.deliveries += 1
        counts = _Counts()
        with self.service.stage("route"):
            for reading in readings:
                self._route(reading, counts)
        with self.service.stage("release"):
            self._release(counts)
        self._publish_telemetry()
        if self.wal is not None and counts.reports:
            self.wal.sync()
        return counts.outcome()

    def finish(self) -> DeliveryOutcome:
        """End of stream: flush every still-buffered slot, in order.

        The flush decision is logged (``finish`` record) before it runs,
        so replaying a finished run drains the buffer at the same point.
        """
        if self.finished:
            raise DataError("event-time ingestor already finished")
        if self.wal is not None:
            self.wal.append_finish(self.deliveries)
        self.finished = True
        counts = _Counts()
        with self.service.stage("finish"):
            for slot, released in self.buffer.flush():
                counts.released_slots += 1
                report = self.service.ingest_cycle(released)
                if report is not None:
                    counts.reports.append(report)
        self._publish_telemetry()
        if self.wal is not None:
            self.wal.sync()
        return counts.outcome()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _route(self, reading: StampedReading, counts: _Counts) -> None:
        deliveries = self.service.metrics.counter(
            "fdeta_eventtime_deliveries_total",
            "Stamped readings delivered to the event-time ingestor, by "
            "routing outcome.",
            labels=("outcome",),
        )
        outcome = self.buffer.offer(reading)
        # Even a rejected offer is evidence of event-time progress:
        # advancing the high mark anyway lets the release pass drain the
        # buffer, so a saturated buffer cannot livelock the watermark
        # (the rejected reading itself must be redelivered by the caller).
        self.tracker.observe(reading.consumer_id, reading.slot)
        if outcome is OfferOutcome.BUFFERED:
            counts.buffered += 1
            deliveries.inc(outcome="buffered")
        elif outcome is OfferOutcome.UPDATED:
            counts.updated += 1
            deliveries.inc(outcome="updated")
        elif outcome is OfferOutcome.REJECTED:
            counts.rejected.append(reading)
            deliveries.inc(outcome="rejected")
            self.signal.engage(
                self.buffer.pending_readings,
                self.buffer.max_pending or 0,
            )
        else:  # LATE: the slot was already released.
            week = reading.slot // SLOTS_PER_WEEK
            released = self.service.cycles_ingested
            if self.config.finalization_slot(week) <= released:
                counts.too_late += 1
                deliveries.inc(outcome="too_late")
                self._quarantine_too_late(reading)
                return
            screened = self.service.firewall.screen(
                {reading.consumer_id: reading.value},
                cycle=reading.slot,
                metrics=self.service.metrics,
                events=self.service.events,
            )
            value = screened.get(reading.consumer_id)
            if value is None:
                counts.screened_out += 1
                deliveries.inc(outcome="screened_out")
                return
            counts.reconciled += 1
            deliveries.inc(outcome="reconciled")
            revision = self.service.reconcile_reading(
                reading.consumer_id, reading.slot, value
            )
            if revision is not None:
                counts.revisions.append(revision)

    def _release(self, counts: _Counts) -> None:
        for slot, released in self.buffer.release_until(
            self.tracker.watermark
        ):
            counts.released_slots += 1
            report = self.service.ingest_cycle(released)
            if report is not None:
                counts.reports.append(report)

    def _quarantine_too_late(self, reading: StampedReading) -> None:
        from repro.quarantine.firewall import QUARANTINE_METRIC
        from repro.quarantine.store import QuarantinedReading, QuarantineReason

        released = self.service.cycles_ingested
        self.service.firewall.store.add(
            QuarantinedReading(
                consumer_id=reading.consumer_id,
                value=float(reading.value),
                cycle=released,
                reason=QuarantineReason.TOO_LATE,
                declared_slot=reading.slot,
                detail=(
                    f"arrived {released - reading.slot} slots after its "
                    "event time, past the grace window"
                ),
            )
        )
        self.service.metrics.counter(
            QUARANTINE_METRIC,
            "Readings quarantined by the integrity firewall, by "
            "reason code.",
            labels=("reason",),
        ).inc(reason=QuarantineReason.TOO_LATE.value)
        if self.service.events is not None:
            self.service.events.warning(
                "reading_quarantined",
                consumer=reading.consumer_id,
                reason=QuarantineReason.TOO_LATE.value,
                cycle=released,
                value=float(reading.value),
                declared_slot=reading.slot,
                detail="past the event-time grace window",
            )

    def _publish_telemetry(self) -> None:
        metrics = self.service.metrics
        metrics.gauge(
            "fdeta_eventtime_buffer_readings",
            "Readings parked in the reorder buffer.",
        ).set(self.buffer.pending_readings)
        metrics.gauge(
            "fdeta_eventtime_buffer_span_slots",
            "Slots between the release cursor and the newest buffered "
            "slot.",
        ).set(self.buffer.span)
        frontier = self.tracker.frontier
        metrics.gauge(
            "fdeta_eventtime_watermark_lag_slots",
            "Open slots between the event-time frontier and the release "
            "cursor.",
        ).set(max(0, frontier - self.buffer.next_slot + 1))
        capacity = self.buffer.max_pending
        if capacity is not None:
            depth = self.buffer.pending_readings
            if depth >= max(1, int(capacity * _HIGH_WATERMARK)):
                self.signal.engage(depth, capacity)
            elif depth <= int(capacity * _LOW_WATERMARK):
                self.signal.release(depth, capacity)


def replay_eventtime(
    directory: str | os.PathLike,
    service_factory: Callable[[], "TheftMonitoringService"],
    resume: bool = False,
) -> tuple[EventTimeIngestor, "WALReplay"]:
    """Rebuild an event-time run from its write-ahead log.

    Replays every ``delivery`` record (and the ``finish`` flush, if one
    was logged) through a fresh service from ``service_factory`` — the
    factory must construct the service exactly as the crashed run did
    (same configs, same declared population).  Because deliveries were
    appended before processing, the rebuilt ingestor's watermark
    decisions, released slots, reconciliations, and revisions are
    bit-identical to the live run's.

    With ``resume=True`` the WAL is re-opened for append (repairing any
    torn tail) and attached to the returned ingestor, so the caller can
    keep delivering where the crashed process stopped — the ingestor's
    delivery index continues from the replayed count.
    """
    from repro.durability.wal import WriteAheadLog, replay_wal

    replay = replay_wal(directory)
    service = service_factory()
    ingestor = EventTimeIngestor(service)
    for record in replay.deliveries():
        assert record.deliveries is not None
        ingestor.deliver(record.deliveries)
    if replay.finished:
        ingestor.finish()
    if resume:
        ingestor.wal = WriteAheadLog(directory, metrics=service.metrics)
    return ingestor, replay
