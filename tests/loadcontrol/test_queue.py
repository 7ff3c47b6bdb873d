"""Bounded queue, watermark hysteresis, and the backpressure signal."""

import numpy as np
import pytest

from repro.core.online import TheftMonitoringService
from repro.core.kld import KLDDetector
from repro.errors import ConfigurationError, QueueDrainedError
from repro.loadcontrol.config import LoadControlConfig, ShedPolicy
from repro.loadcontrol.queue import (
    BackpressureSignal,
    BoundedCycleQueue,
    BufferedIngestor,
)
from repro.observability.metrics import MetricsRegistry
from repro.resilience.checkpoint import load_checkpoint, save_checkpoint
from repro.resilience.config import ResilienceConfig
from repro.timeseries.seasonal import SLOTS_PER_WEEK

CONSUMERS = ("c1", "c2", "c3")


def _service(loadcontrol=None):
    return TheftMonitoringService(
        detector_factory=lambda: KLDDetector(significance=0.05),
        min_training_weeks=2,
        resilience=ResilienceConfig(),
        population=CONSUMERS,
        loadcontrol=loadcontrol,
    )


class TestBoundedCycleQueue:
    def test_capacity_validated(self):
        with pytest.raises(ConfigurationError):
            BoundedCycleQueue(capacity=0)

    def test_watermarks_validated(self):
        with pytest.raises(ConfigurationError):
            BoundedCycleQueue(capacity=10, high_watermark=0.3, low_watermark=0.8)

    def test_fifo_order(self):
        queue = BoundedCycleQueue(capacity=4)
        for item in ("a", "b", "c"):
            assert queue.offer(item)
        assert [queue.take() for _ in range(3)] == ["a", "b", "c"]

    def test_rejects_when_full_nothing_dropped(self):
        queue = BoundedCycleQueue(capacity=2)
        assert queue.offer(1)
        assert queue.offer(2)
        assert not queue.offer(3)
        assert queue.rejected == 1
        assert queue.offered == 3
        # The two accepted items are intact.
        assert queue.take() == 1
        assert queue.take() == 2

    def test_take_empty_raises(self):
        queue = BoundedCycleQueue(capacity=2)
        with pytest.raises(QueueDrainedError):
            queue.take()

    def test_peak_depth_tracked(self):
        queue = BoundedCycleQueue(capacity=8)
        for i in range(5):
            queue.offer(i)
        for _ in range(5):
            queue.take()
        assert queue.peak_depth == 5
        assert queue.depth == 0

    def test_reconciliation_offered_equals_enqueued_plus_rejected(self):
        queue = BoundedCycleQueue(capacity=3)
        accepted = sum(1 for i in range(10) if queue.offer(i))
        assert queue.offered == 10
        assert accepted + queue.rejected == queue.offered

    def test_metrics_exported(self):
        metrics = MetricsRegistry()
        queue = BoundedCycleQueue(capacity=4, metrics=metrics)
        queue.offer(1)
        totals = metrics.totals()
        assert totals[("fdeta_queue_enqueued_total", ())] == 1
        assert metrics.gauge(
            "fdeta_queue_depth", "Pending cycles in the ingestion queue."
        ).value() == 1


class TestBackpressureHysteresis:
    def _queue(self, signal):
        # capacity 10: engage at depth >= 8, release at depth <= 3.
        return BoundedCycleQueue(
            capacity=10,
            high_watermark=0.8,
            low_watermark=0.3,
            signal=signal,
        )

    def test_engages_at_high_watermark(self):
        signal = BackpressureSignal()
        queue = self._queue(signal)
        for i in range(7):
            queue.offer(i)
        assert not signal.engaged
        queue.offer(7)
        assert signal.engaged

    def test_releases_only_below_low_watermark(self):
        signal = BackpressureSignal()
        queue = self._queue(signal)
        for i in range(8):
            queue.offer(i)
        assert signal.engaged
        # Draining to depth 4 (above low watermark) keeps pressure on:
        # hysteresis prevents flapping around the high mark.
        for _ in range(4):
            queue.take()
        assert signal.engaged
        queue.take()  # depth 3 == low mark -> release
        assert not signal.engaged
        assert signal.transitions == 2

    def test_full_queue_engages_even_without_drain(self):
        signal = BackpressureSignal()
        queue = BoundedCycleQueue(capacity=2, signal=signal)
        queue.offer(1)
        queue.offer(2)
        queue.offer(3)  # rejected
        assert signal.engaged

    def test_tick_counts_consecutive_engaged_cycles(self):
        signal = BackpressureSignal()
        assert signal.tick() == 0
        signal.engage(8, 10)
        assert signal.tick() == 1
        assert signal.tick() == 2
        signal.release(1, 10)
        assert signal.tick() == 0


class TestBufferedIngestor:
    def test_submit_drain_round_trip(self):
        service = _service()
        ingestor = BufferedIngestor(service.ingest_cycle)
        readings = {cid: 1.0 for cid in CONSUMERS}
        assert ingestor.submit(readings)
        assert ingestor.submit(readings)
        reports = ingestor.drain()
        assert reports == []  # no week completed yet
        assert service.cycles_ingested == 2
        assert ingestor.cycles_drained == 2

    def test_signal_attached_to_service(self):
        service = _service()
        ingestor = BufferedIngestor(service.ingest_cycle)
        assert service.backpressure is ingestor.signal

    def test_submit_rejects_when_queue_full(self):
        service = _service()
        config = LoadControlConfig(max_queue=2)
        ingestor = BufferedIngestor(service.ingest_cycle, config=config)
        readings = {cid: 1.0 for cid in CONSUMERS}
        assert ingestor.submit(readings)
        assert ingestor.submit(readings)
        assert not ingestor.submit(readings)
        assert ingestor.signal.engaged
        # Draining everything releases pressure again.
        ingestor.drain()
        assert not ingestor.signal.engaged

    def test_drain_max_cycles(self):
        service = _service()
        ingestor = BufferedIngestor(service.ingest_cycle)
        readings = {cid: 1.0 for cid in CONSUMERS}
        for _ in range(5):
            ingestor.submit(readings)
        ingestor.drain(max_cycles=2)
        assert service.cycles_ingested == 2
        assert ingestor.backlog == 3

    def test_weekly_reports_surface_through_drain(self):
        service = _service()
        ingestor = BufferedIngestor(service.ingest_cycle)
        readings = {cid: 1.0 for cid in CONSUMERS}
        reports = []
        for _ in range(SLOTS_PER_WEEK):
            ingestor.submit(readings)
            reports.extend(ingestor.drain())
        assert len(reports) == 1
        assert reports[0].week_index == 0

    def test_deadline_overruns_counted(self):
        # A fake clock that burns the whole budget inside every stage.
        tick = {"now": 0.0}

        def clock():
            tick["now"] += 10.0
            return tick["now"]

        service = _service()
        config = LoadControlConfig(cycle_deadline_s=1.0)
        ingestor = BufferedIngestor(
            service.ingest_cycle, config=config, clock=clock
        )
        readings = {cid: 1.0 for cid in CONSUMERS}
        ingestor.submit(readings)
        ingestor.drain()
        assert ingestor.deadlines_overrun == 1


class TestCheckpointWithRetiredAdmissionFields:
    """Checkpoints pickle ``LoadControlConfig``; one written while it
    still carried the head-end admission knobs must keep restoring."""

    RETIRED = {
        "admit_rate": 64.0,
        "admit_burst": 128.0,
        "min_admit_rate": 1.0,
        "max_admit_rate": 4096.0,
        "aimd_increase": 4.0,
        "aimd_decrease": 0.5,
        "max_defer_cycles": 8,
    }

    @staticmethod
    def _readings(t):
        rng = np.random.default_rng((29, t))
        return {cid: float(rng.gamma(2.0, 0.5)) for cid in CONSUMERS}

    def test_restores_and_keeps_ingesting(self, tmp_path):
        config = LoadControlConfig(max_queue=8, shed_policy=ShedPolicy.PRIORITY)
        # The pickled state of a config from before the fields were
        # retired: its instance dict carried them alongside the rest.
        for name, value in self.RETIRED.items():
            object.__setattr__(config, name, value)
        service = _service(loadcontrol=config)
        for t in range(2 * SLOTS_PER_WEEK):
            service.ingest_cycle(self._readings(t))
        path = tmp_path / "monitor.ckpt"
        save_checkpoint(service, path)
        assert b"max_defer_cycles" in path.read_bytes()

        restored = load_checkpoint(
            path, detector_factory=lambda: KLDDetector(significance=0.05)
        )
        assert restored.loadcontrol == LoadControlConfig(
            max_queue=8, shed_policy=ShedPolicy.PRIORITY
        )
        assert len(restored.reports) == 2
        for t in range(2 * SLOTS_PER_WEEK, 4 * SLOTS_PER_WEEK):
            restored.ingest_cycle(self._readings(t))
        assert [r.week_index for r in restored.reports] == [0, 1, 2, 3]
        # Trained on the restored weeks, the service scores everyone.
        assert set(restored.reports[-1].coverage) == set(CONSUMERS)
        # Only the declared fields survive a restore, so re-saving the
        # restored service drops the retired knobs for good.
        save_checkpoint(restored, path)
        assert b"max_defer_cycles" not in path.read_bytes()

