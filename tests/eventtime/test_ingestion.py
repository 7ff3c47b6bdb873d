"""EventTimeIngestor: scrambled delivery converges to the in-order run.

The acceptance criterion for the event-time layer: delivering the same
readings out of order (within the lateness bound plus grace window)
produces byte-identical weekly reports and stores, with every
intermediate verdict change published as a versioned revision.
"""

import numpy as np
import pytest

from repro.core.kld import KLDDetector
from repro.core.online import TheftMonitoringService
from repro.errors import ConfigurationError, DataError
from repro.eventtime import (
    EventTimeConfig,
    EventTimeIngestor,
    StampedReading,
)
from repro.quarantine.firewall import FirewallPolicy, ReadingFirewall
from repro.resilience.config import ResilienceConfig
from repro.timeseries.seasonal import SLOTS_PER_WEEK

CONSUMERS = ("c1", "c2", "c3", "c4")
LATENESS = 8
GRACE = 1
MAX_DELAY = LATENESS + GRACE * SLOTS_PER_WEEK


def _reading(cid, t, theft_start=None):
    rng = np.random.default_rng((11, t, CONSUMERS.index(cid)))
    value = float(rng.gamma(2.0, 0.5)) + 0.05
    if theft_start is not None and cid == "c1" and t >= theft_start:
        value *= 0.05
    return value


def _service(eventtime=None, max_pending=None):
    config = eventtime or EventTimeConfig(
        lateness_slots=LATENESS,
        grace_weeks=GRACE,
        max_pending_readings=max_pending,
    )
    return TheftMonitoringService(
        detector_factory=lambda: KLDDetector(significance=0.05),
        min_training_weeks=3,
        retrain_every_weeks=2,
        # failure_threshold high: breaker trip order is delivery-order
        # dependent, which would break the equivalence being tested.
        resilience=ResilienceConfig(min_coverage=0.5, failure_threshold=10_000),
        population=CONSUMERS,
        firewall=ReadingFirewall(FirewallPolicy(max_reading_kwh=50.0)),
        eventtime=config,
    )


def _run(weeks, scramble, theft_start=None, seed=99):
    """Deliver ``weeks`` of readings, optionally scrambled within bound."""
    service = _service()
    ingestor = EventTimeIngestor(service)
    schedule = {}
    for t in range(weeks * SLOTS_PER_WEEK):
        rng = np.random.default_rng((seed, t))
        for cid in CONSUMERS:
            value = _reading(cid, t, theft_start)
            delay = int(rng.integers(0, MAX_DELAY)) if scramble else 0
            schedule.setdefault(t + delay, []).append(
                StampedReading(cid, t, value)
            )
            if scramble and rng.random() < 0.05:  # duplicate delivery
                dup = int(rng.integers(0, MAX_DELAY))
                schedule.setdefault(t + dup, []).append(
                    StampedReading(cid, t, value)
                )
    for tick in sorted(schedule):
        ingestor.deliver(schedule[tick])
    ingestor.finish()
    return service, ingestor


class TestConstruction:
    def test_requires_eventtime_config(self):
        service = TheftMonitoringService(
            detector_factory=KLDDetector,
            resilience=ResilienceConfig(),
            population=CONSUMERS,
            firewall=ReadingFirewall(),
        )
        with pytest.raises(ConfigurationError):
            EventTimeIngestor(service)

    def test_requires_declared_population(self):
        # The service itself tolerates an undeclared roster, but the
        # ingestor cannot: released slots may be partial, so the roster
        # can't be learned from a first cycle.
        service = TheftMonitoringService(
            detector_factory=KLDDetector,
            resilience=ResilienceConfig(),
            firewall=ReadingFirewall(),
            eventtime=EventTimeConfig(),
        )
        with pytest.raises(ConfigurationError):
            EventTimeIngestor(service)

    def test_unknown_consumer_rejected(self):
        ingestor = EventTimeIngestor(_service())
        with pytest.raises(DataError):
            ingestor.deliver([StampedReading("ghost", 0, 1.0)])

    def test_deliver_after_finish_rejected(self):
        ingestor = EventTimeIngestor(_service())
        ingestor.finish()
        with pytest.raises(DataError):
            ingestor.deliver([StampedReading("c1", 0, 1.0)])


class TestEquivalence:
    """Scrambled delivery == in-order delivery, modulo revision records."""

    def test_scrambled_run_converges_bit_identically(self):
        weeks = 8
        theft_start = 5 * SLOTS_PER_WEEK
        base_service, _ = _run(weeks, scramble=False, theft_start=theft_start)
        scr_service, _ = _run(weeks, scramble=True, theft_start=theft_start)
        assert base_service.weeks_completed == weeks
        assert scr_service.weeks_completed == weeks
        # The theft is detected in both runs ...
        assert any(len(r.alerts) > 0 for r in base_service.reports)
        # ... and every weekly report matches exactly: alerts, order,
        # coverage, quarantine and suppression sets.
        for base, scrambled in zip(base_service.reports, scr_service.reports):
            assert base == scrambled
        # Stores converge bit-identically (late true readings landed in
        # the same cells the in-order run filled directly).
        for cid in CONSUMERS:
            assert np.array_equal(
                base_service.store.series(cid),
                scr_service.store.series(cid),
                equal_nan=True,
            )
        # Nothing within the bound may fall off the grace window.
        too_late = scr_service.firewall.store.counts_by_reason().get(
            "too_late", 0
        )
        assert too_late == 0

    def test_scrambled_run_publishes_versioned_revisions(self):
        weeks = 8
        theft_start = 5 * SLOTS_PER_WEEK
        base_service, _ = _run(weeks, scramble=False, theft_start=theft_start)
        scr_service, _ = _run(weeks, scramble=True, theft_start=theft_start)
        # The in-order run never revises; the scrambled run documents
        # every flagged-state flip it made on the way to convergence.
        assert len(base_service.revisions) == 0
        assert len(scr_service.revisions) > 0
        for revision in scr_service.revisions.revisions:
            assert revision.flagged_before != revision.flagged_after
            assert revision.version >= 1
        report = scr_service.revisions.report()
        assert report["total"] == len(scr_service.revisions)


class TestLateRouting:
    def test_too_late_reading_quarantined(self):
        config = EventTimeConfig(lateness_slots=4, grace_weeks=0)
        service = _service(eventtime=config)
        ingestor = EventTimeIngestor(service)
        # Drive a full week plus the lateness bound so week 0 finalises.
        for t in range(SLOTS_PER_WEEK + 5):
            ingestor.deliver(
                [StampedReading(cid, t, 1.0) for cid in CONSUMERS]
            )
        assert service.weeks_completed == 1
        outcome = ingestor.deliver([StampedReading("c1", 3, 1.0)])
        assert outcome.too_late == 1
        counts = service.firewall.store.counts_by_reason()
        assert counts.get("too_late") == 1
        (record,) = [
            r for r in service.firewall.store.records if r.consumer_id == "c1"
        ]
        assert record.declared_slot == 3

    def test_late_reading_within_grace_reconciles(self):
        service = _service()
        ingestor = EventTimeIngestor(service)
        # Slot 0 releases once the frontier passes the lateness bound.
        for t in range(LATENESS + 1):
            ingestor.deliver(
                [StampedReading(cid, t, 1.0) for cid in CONSUMERS]
            )
        outcome = ingestor.deliver([StampedReading("c1", 0, 2.0)])
        assert outcome.reconciled == 1
        assert outcome.too_late == 0
        assert service.store.series("c1")[0] == 2.0

    def test_late_malformed_reading_screened_out(self):
        service = _service()
        ingestor = EventTimeIngestor(service)
        for t in range(LATENESS + 1):
            ingestor.deliver(
                [StampedReading(cid, t, 1.0) for cid in CONSUMERS]
            )
        outcome = ingestor.deliver([StampedReading("c1", 0, float("nan"))])
        assert outcome.screened_out == 1
        assert outcome.reconciled == 0
        assert service.store.series("c1")[0] == 1.0  # untouched


class TestBackpressure:
    def test_capacity_rejections_engage_signal(self):
        service = _service(max_pending=4)
        ingestor = EventTimeIngestor(service)
        # 5th distinct buffered reading overflows the bound of 4.
        outcome = ingestor.deliver(
            [StampedReading("c1", slot, 1.0) for slot in range(10, 15)]
        )
        assert len(outcome.rejected) == 1
        assert ingestor.signal.engaged
        assert service.backpressure is ingestor.signal

    def test_signal_releases_after_drain(self):
        service = _service(max_pending=4)
        ingestor = EventTimeIngestor(service)
        ingestor.deliver(
            [StampedReading("c1", slot, 1.0) for slot in range(10, 15)]
        )
        assert ingestor.signal.engaged
        # Advancing the frontier drains the buffer below the low mark.
        ingestor.deliver([StampedReading("c1", 40, 1.0)])
        assert not ingestor.signal.engaged


class TestTelemetry:
    def test_gauges_published(self):
        service = _service()
        ingestor = EventTimeIngestor(service)
        ingestor.deliver([StampedReading("c1", 5, 1.0)])
        metrics = service.metrics
        assert (
            metrics.gauge("fdeta_eventtime_buffer_readings").value() == 1.0
        )
        # Frontier 5, nothing released: 6 open slots.
        assert (
            metrics.gauge("fdeta_eventtime_watermark_lag_slots").value()
            == 6.0
        )

    def test_delivery_counter_by_outcome(self):
        service = _service()
        ingestor = EventTimeIngestor(service)
        ingestor.deliver([StampedReading("c1", 0, 1.0)])
        ingestor.deliver([StampedReading("c1", 0, 2.0)])  # update
        counter = service.metrics.counter(
            "fdeta_eventtime_deliveries_total", labels=("outcome",)
        )
        assert counter.value(outcome="buffered") == 1.0
        assert counter.value(outcome="updated") == 1.0
