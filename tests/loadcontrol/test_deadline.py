"""Deadline overrun accounting through the service's stage timer, with a
deterministic fake clock."""

import io
import json

import pytest

import repro.core.online as online
from repro.core.kld import KLDDetector
from repro.core.online import TheftMonitoringService
from repro.errors import ConfigurationError
from repro.loadcontrol.deadline import STAGE_SECONDS_BUCKETS, Deadline
from repro.observability.events import EventLogger
from repro.observability.metrics import MetricsRegistry


class FakeClock:
    """Manually-advanced monotonic clock."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


@pytest.fixture
def clock(monkeypatch):
    """One fake clock for both the stage timer and the deadline."""
    fake = FakeClock()
    monkeypatch.setattr(online, "perf_counter", fake)
    return fake


@pytest.fixture
def service():
    return TheftMonitoringService(detector_factory=KLDDetector)


def _events(stream):
    return [json.loads(line) for line in stream.getvalue().splitlines()]


def _stage_seconds(service):
    return service.metrics.histogram(
        "fdeta_stage_seconds",
        labels=("stage",),
        buckets=STAGE_SECONDS_BUCKETS,
    )


class TestDeadline:
    def test_budget_validated(self):
        with pytest.raises(ConfigurationError):
            Deadline(0.0)
        with pytest.raises(ConfigurationError):
            Deadline(-1.0)

    def test_stage_accounting(self, clock, service):
        deadline = Deadline(10.0, clock=clock)
        with service.stage("firewall", deadline):
            clock.advance(1.0)
        with service.stage("scoring", deadline):
            clock.advance(2.0)
        with service.stage("scoring", deadline):
            clock.advance(0.5)
        histogram = _stage_seconds(service)
        assert histogram.sum(stage="firewall") == 1.0
        assert histogram.sum(stage="scoring") == 2.5
        assert histogram.count(stage="scoring") == 2
        assert deadline.elapsed() == 3.5
        assert not deadline.expired
        assert not deadline.overran

    def test_expires_when_budget_spent(self, clock, service):
        deadline = Deadline(1.0, clock=clock)
        with service.stage("ingest", deadline):
            clock.advance(1.5)
        assert deadline.expired
        assert deadline.overran
        assert deadline.overrun_stages == ["ingest"]

    def test_unlimited_never_expires(self, clock, service):
        deadline = Deadline(None, clock=clock)
        with service.stage("scoring", deadline):
            clock.advance(1e9)
        assert not deadline.expired
        assert not deadline.overran
        # The stage is still timed without a budget.
        assert _stage_seconds(service).sum(stage="scoring") == 1e9

    def test_overrun_event_fires_once(self, clock, service):
        stream = io.StringIO()
        events = EventLogger(stream=stream)
        metrics = MetricsRegistry()
        deadline = Deadline(1.0, clock=clock, metrics=metrics, events=events)
        with service.stage("wal_append", deadline):
            clock.advance(2.0)
        with service.stage("scoring", deadline):
            clock.advance(1.0)
        overruns = [
            e for e in _events(stream) if e["event"] == "deadline_overrun"
        ]
        assert len(overruns) == 1
        assert overruns[0]["stage"] == "wal_append"
        assert overruns[0]["elapsed_s"] == 2.0
        assert overruns[0]["overrun_by_s"] == 1.0
        # Both stages count in the per-stage overrun counter...
        totals = metrics.totals()
        assert totals[("fdeta_deadline_overruns_total", ("wal_append",))] == 1
        assert totals[("fdeta_deadline_overruns_total", ("scoring",))] == 1
        # ...but the magnitude histogram samples only the first overrun.
        assert totals[("fdeta_deadline_overrun_seconds_count", ())] == 1

    def test_stage_seconds_histogram_observed(self, clock, service):
        deadline = Deadline(10.0, clock=clock)
        with service.stage("firewall", deadline):
            clock.advance(0.25)
        histogram = _stage_seconds(service)
        assert histogram.count(stage="firewall") == 1
        assert histogram.sum(stage="firewall") == 0.25

    def test_stage_records_even_when_body_raises(self, clock, service):
        deadline = Deadline(0.5, clock=clock)
        with pytest.raises(RuntimeError):
            with service.stage("scoring", deadline):
                clock.advance(1.0)
                raise RuntimeError("boom")
        assert _stage_seconds(service).sum(stage="scoring") == 1.0
        assert deadline.overrun_stages == ["scoring"]
