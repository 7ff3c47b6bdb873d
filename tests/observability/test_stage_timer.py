"""One measurement: the stage profile IS the ``fdeta_stage_seconds`` data.

``TheftMonitoringService.stage`` reads the clock once per window and
hands that one elapsed value to the histogram and to the profiler, so
for every stage the profile's ``calls`` equals the histogram's count
and its ``cum_s`` equals the histogram's sum bit for bit — on the plain
service, behind a durable monitor, and behind an event-time ingestor.
"""

import numpy as np

from repro.core.kld import KLDDetector
from repro.core.online import TheftMonitoringService
from repro.durability import DurableTheftMonitor, WriteAheadLog
from repro.eventtime import EventTimeConfig, EventTimeIngestor
from repro.integrity import IntegrityConfig
from repro.loadcontrol.deadline import STAGE_SECONDS_BUCKETS
from repro.metering.scramble import ScramblingChannel
from repro.observability.ops import StageProfiler
from repro.resilience.config import ResilienceConfig
from repro.timeseries.seasonal import SLOTS_PER_WEEK

CONSUMERS = tuple(f"c{i}" for i in range(6))
WEEKS = 3
CYCLES = WEEKS * SLOTS_PER_WEEK


def _readings(t):
    rng = np.random.default_rng((23, t))
    return {cid: float(rng.gamma(2.0, 0.5)) + 0.05 for cid in CONSUMERS}


def _service(**kwargs):
    service = TheftMonitoringService(
        detector_factory=lambda: KLDDetector(significance=0.05),
        min_training_weeks=2,
        resilience=ResilienceConfig(failure_threshold=10_000),
        population=CONSUMERS,
        **kwargs,
    )
    service.profiler = StageProfiler()
    return service


def _assert_one_measurement(service):
    """Every profiled stage reads the same as its histogram series."""
    profile = service.profiler.snapshot()
    histogram = service.metrics.histogram(
        "fdeta_stage_seconds",
        labels=("stage",),
        buckets=STAGE_SECONDS_BUCKETS,
    )
    timed = {labels["stage"] for labels in histogram.label_sets()}
    assert timed == set(profile)
    for stage, stats in profile.items():
        assert stats["calls"] == histogram.count(stage=stage), stage
        assert stats["cum_s"] == histogram.sum(stage=stage), stage
    cycles = service.metrics.counter("fdeta_ingest_cycles_total").value()
    assert histogram.count(stage="firewall") == cycles
    return profile


class TestOneMeasurement:
    def test_plain_service(self):
        service = _service(integrity=IntegrityConfig())
        for t in range(CYCLES):
            service.ingest_cycle(_readings(t))
        profile = _assert_one_measurement(service)
        assert profile["firewall"]["calls"] == CYCLES
        assert profile["scoring"]["calls"] == WEEKS
        # Nested stages run inside the weekly scoring window.
        assert {"integrity_screen", "canary_gate"} <= set(profile)
        assert profile["scoring"]["self_s"] < profile["scoring"]["cum_s"]

    def test_durable_monitor(self, tmp_path):
        service = _service()
        with DurableTheftMonitor(
            service,
            WriteAheadLog(tmp_path / "wal"),
            checkpoint_path=tmp_path / "m.ckpt",
        ) as monitor:
            for t in range(CYCLES):
                monitor.ingest_cycle(_readings(t))
        profile = _assert_one_measurement(service)
        # The durable append is timed on every cycle, not only when a
        # load-control budget is passed.
        assert profile["wal_append"]["calls"] == CYCLES
        assert profile["checkpoint"]["calls"] == WEEKS

    def test_eventtime_ingestor(self, tmp_path):
        service = _service(
            eventtime=EventTimeConfig(lateness_slots=8, grace_weeks=1)
        )
        channel = ScramblingChannel(median_delay_slots=2.0, max_delay_slots=8)
        rng = np.random.default_rng(5)
        with WriteAheadLog(tmp_path / "wal") as wal:
            ingestor = EventTimeIngestor(service, wal=wal)
            for t in range(CYCLES):
                channel.push(t, _readings(t), rng)
                ingestor.deliver(channel.pop_due(t))
            ingestor.deliver(channel.drain())
            ingestor.finish()
        profile = _assert_one_measurement(service)
        for stage in ("wal_append", "route", "release"):
            assert profile[stage]["calls"] == CYCLES + 1, stage
        assert profile["finish"]["calls"] == 1
        assert profile["ingest"]["calls"] == CYCLES

    def test_profiler_attached_mid_stage_is_not_charged(self):
        service = _service()
        service.profiler = None
        with service.stage("release"):
            service.profiler = StageProfiler()
            service.ingest_cycle(_readings(0))
        profile = service.profiler.snapshot()
        assert "release" not in profile
        assert profile["firewall"]["calls"] == 1


def test_unprofiled_service_still_times_every_stage():
    service = _service()
    service.profiler = None
    for t in range(3):
        service.ingest_cycle(_readings(t))
    histogram = service.metrics.histogram(
        "fdeta_stage_seconds",
        labels=("stage",),
        buckets=STAGE_SECONDS_BUCKETS,
    )
    assert histogram.count(stage="firewall") == 3
    assert histogram.count(stage="ingest") == 3
    # Bound lazily: a stage that never ran exports no series.
    assert {"stage": "scoring"} not in histogram.label_sets()
