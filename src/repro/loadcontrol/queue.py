"""Bounded ingestion queues and the backpressure signal.

The pipeline's overload failure mode is an unbounded producer/consumer
gap: a read storm (mass re-poll after an outage, WAL replay flood, late
deliveries) can hand the monitoring service cycles faster than weekly
scoring can drain them, growing memory without bound and starving the
scoring path.  This module closes that gap with three cooperating
pieces:

* :class:`BoundedCycleQueue` — a fixed-capacity FIFO of polling cycles.
  ``offer`` *rejects* when full instead of blocking or silently
  dropping, so the producer always learns it must hold and re-offer.
* :class:`BackpressureSignal` — the explicit slow-down channel from the
  service back to the producer: engaged when queue depth crosses the
  high watermark, released below the low watermark (hysteresis); its
  engaged-tick count drives pressure shedding.
* :class:`BufferedIngestor` — glues a queue and a signal in front of
  any ingest callable (a bare service, a durable monitor, or a shard
  fleet), so the storm-facing surface is one ``submit``/``drain``
  pair.
"""

from __future__ import annotations

from collections import deque
from time import perf_counter
from typing import TYPE_CHECKING, Callable, Mapping

from repro.errors import (
    ConfigurationError,
    QueueDrainedError,
    StorageError,
)
from repro.loadcontrol.config import LoadControlConfig
from repro.loadcontrol.deadline import Deadline

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.core.online import MonitoringReport
    from repro.grid.snapshot import DemandSnapshot
    from repro.observability.events import EventLogger
    from repro.observability.metrics import MetricsRegistry

__all__ = ["BackpressureSignal", "BoundedCycleQueue", "BufferedIngestor"]


class BackpressureSignal:
    """Shared flag carrying "slow down" from consumer to producer.

    The consumer side (queue watermarks) calls :meth:`engage` /
    :meth:`release`; the producer side reads :attr:`engaged` before
    admitting work.  :meth:`tick` is called once per drain cycle and
    returns how many consecutive ticks pressure has been engaged — the
    service uses that streak to decide when pressure is *sustained*
    enough to pre-shed the healthy tier.
    """

    def __init__(
        self,
        metrics: "MetricsRegistry | None" = None,
        events: "EventLogger | None" = None,
    ) -> None:
        self.metrics = metrics
        self.events = events
        self.engaged = False
        self.transitions = 0
        self.engaged_ticks = 0

    def _gauge(self, value: float) -> None:
        if self.metrics is not None:
            self.metrics.gauge(
                "fdeta_backpressure_engaged",
                "1 while the ingestion queue is pressuring producers.",
            ).set(value)

    def engage(self, depth: int, capacity: int) -> None:
        if self.engaged:
            return
        self.engaged = True
        self.transitions += 1
        self._gauge(1.0)
        if self.events is not None:
            self.events.warning(
                "backpressure_engaged", depth=depth, capacity=capacity
            )

    def release(self, depth: int, capacity: int) -> None:
        if not self.engaged:
            return
        self.engaged = False
        self.transitions += 1
        self.engaged_ticks = 0
        self._gauge(0.0)
        if self.events is not None:
            self.events.info(
                "backpressure_released", depth=depth, capacity=capacity
            )

    def tick(self) -> int:
        """Advance one drain cycle; returns the engaged-tick streak."""
        if self.engaged:
            self.engaged_ticks += 1
        else:
            self.engaged_ticks = 0
        return self.engaged_ticks


class BoundedCycleQueue:
    """Fixed-capacity FIFO of pending polling cycles.

    ``offer`` returns ``False`` (and counts a reject) when the queue is
    full — the caller must hold the cycle and re-offer later; nothing
    is ever silently dropped.  Depth crossings drive the attached
    :class:`BackpressureSignal` with hysteresis.
    """

    def __init__(
        self,
        capacity: int,
        high_watermark: float = 0.8,
        low_watermark: float = 0.3,
        signal: BackpressureSignal | None = None,
        metrics: "MetricsRegistry | None" = None,
    ) -> None:
        if capacity < 1:
            raise ConfigurationError(f"capacity must be >= 1, got {capacity}")
        if not 0.0 < low_watermark < high_watermark <= 1.0:
            raise ConfigurationError(
                "watermarks must satisfy 0 < low < high <= 1, got "
                f"low={low_watermark}, high={high_watermark}"
            )
        self.capacity = int(capacity)
        self.high_depth = max(1, int(capacity * high_watermark))
        self.low_depth = int(capacity * low_watermark)
        self.signal = signal
        self.metrics = metrics
        self._items: deque = deque()
        self.offered = 0
        self.rejected = 0
        self.taken = 0
        self.peak_depth = 0

    @property
    def depth(self) -> int:
        return len(self._items)

    def __len__(self) -> int:
        return len(self._items)

    @property
    def full(self) -> bool:
        return len(self._items) >= self.capacity

    def _update_telemetry(self) -> None:
        depth = len(self._items)
        self.peak_depth = max(self.peak_depth, depth)
        if self.metrics is not None:
            self.metrics.gauge(
                "fdeta_queue_depth", "Pending cycles in the ingestion queue."
            ).set(depth)
            self.metrics.gauge(
                "fdeta_queue_depth_peak",
                "High-water mark of the ingestion queue.",
            ).set(self.peak_depth)
        if self.signal is not None:
            if depth >= self.high_depth:
                self.signal.engage(depth, self.capacity)
            elif depth <= self.low_depth:
                self.signal.release(depth, self.capacity)

    def offer(self, item: object) -> bool:
        """Enqueue one cycle; ``False`` when the queue is full."""
        self.offered += 1
        if self.full:
            self.rejected += 1
            if self.metrics is not None:
                self.metrics.counter(
                    "fdeta_queue_rejects_total",
                    "Cycles refused because the ingestion queue was full.",
                ).inc()
            # A full queue is already past the high watermark; make sure
            # the signal reflects it even if the producer never drains.
            if self.signal is not None:
                self.signal.engage(len(self._items), self.capacity)
            return False
        self._items.append(item)
        if self.metrics is not None:
            self.metrics.counter(
                "fdeta_queue_enqueued_total",
                "Cycles accepted into the ingestion queue.",
            ).inc()
        self._update_telemetry()
        return True

    def take(self) -> object:
        """Dequeue the oldest cycle; raises when empty."""
        if not self._items:
            raise QueueDrainedError("ingestion queue is empty")
        item = self._items.popleft()
        self.taken += 1
        self._update_telemetry()
        return item

    def requeue_front(self, item: object) -> None:
        """Put a taken-but-unprocessed cycle back at the head.

        Used when the consumer refuses the cycle *without* having
        committed it (e.g. storage went read-only mid-drain): the cycle
        was acknowledged at :meth:`offer` time, so dropping it here
        would lose an accepted reading.  Re-queueing at the front
        preserves delivery order; the un-take keeps ``taken`` an honest
        count of cycles actually consumed.
        """
        self._items.appendleft(item)
        self.taken -= 1
        self._update_telemetry()


class BufferedIngestor:
    """A bounded buffer in front of any cycle-ingesting callable.

    Parameters
    ----------
    ingest:
        ``ingest(readings, snapshot, deadline=...)`` — typically
        :meth:`repro.core.online.TheftMonitoringService.ingest_cycle`,
        :meth:`repro.durability.recovery.DurableTheftMonitor.ingest_cycle`,
        or :meth:`repro.scaleout.ElasticFleet.ingest_cycle`.
    config:
        Queue capacity, watermarks, and the per-cycle deadline budget.
    clock:
        Injected into per-cycle deadlines (deterministic tests).
    """

    def __init__(
        self,
        ingest: Callable,
        config: LoadControlConfig | None = None,
        metrics: "MetricsRegistry | None" = None,
        events: "EventLogger | None" = None,
        clock: Callable[[], float] | None = None,
    ) -> None:
        self.ingest = ingest
        self.config = config if config is not None else LoadControlConfig()
        self.metrics = metrics
        self.events = events
        self._clock = clock
        self.signal = BackpressureSignal(metrics=metrics, events=events)
        # Attach the signal to the consumer so its weekly scoring can
        # see sustained pressure: services, durable monitors, and
        # shard fleets all expose a ``backpressure`` slot.
        owner = getattr(ingest, "__self__", None)
        if owner is not None and hasattr(owner, "backpressure"):
            owner.backpressure = self.signal
        self.queue = BoundedCycleQueue(
            capacity=self.config.max_queue,
            high_watermark=self.config.high_watermark,
            low_watermark=self.config.low_watermark,
            signal=self.signal,
            metrics=metrics,
        )
        self.cycles_drained = 0
        self.deadlines_overrun = 0

    @property
    def backlog(self) -> int:
        return self.queue.depth

    def submit(
        self,
        reported: Mapping,
        snapshot: "DemandSnapshot | None" = None,
    ) -> bool:
        """Offer one polling cycle; ``False`` means hold and re-offer."""
        return self.queue.offer((dict(reported), snapshot))

    def drain(
        self, max_cycles: int | None = None
    ) -> list["MonitoringReport"]:
        """Ingest up to ``max_cycles`` buffered cycles (all, when None).

        Each drained cycle runs under its own :class:`Deadline` built
        from the configured budget; completed weekly reports are
        returned in order.  The backpressure streak advances once per
        ``drain`` call.

        A cycle the consumer refuses with a
        :class:`~repro.errors.StorageError` (storage degraded or beyond
        its retry budget) is **re-queued at the front** before the
        error propagates — it was acknowledged when accepted into the
        queue, so it must survive for the next drain after recovery.
        """
        self.signal.tick()
        reports: list["MonitoringReport"] = []
        drained = 0
        while self.queue.depth and (max_cycles is None or drained < max_cycles):
            item = self.queue.take()
            reported, snapshot = item
            deadline = Deadline(
                self.config.cycle_deadline_s,
                clock=self._clock if self._clock is not None else perf_counter,
                metrics=self.metrics,
                events=self.events,
            )
            try:
                report = self.ingest(reported, snapshot, deadline=deadline)
            except StorageError:
                self.queue.requeue_front(item)
                self.cycles_drained += drained
                raise
            if deadline.overran:
                self.deadlines_overrun += 1
            if report is not None:
                reports.append(report)
            drained += 1
        self.cycles_drained += drained
        return reports
