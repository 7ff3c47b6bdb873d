"""Durability of the event-time pipeline: WAL replay and crash recovery.

Delivery batches are appended to the write-ahead log *before* they touch
watermark or service state, so a replay reproduces the live run's
releases, reconciliations, and revisions bit-identically — including a
run cut down mid-reconciliation by an injected crash.
"""

import numpy as np
import pytest

from repro.core.kld import KLDDetector
from repro.core.online import TheftMonitoringService
from repro.durability.crash import CrashingWAL, CrashPoint, SimulatedCrash
from repro.durability.wal import WriteAheadLog
from repro.eventtime import (
    EventTimeConfig,
    EventTimeIngestor,
    StampedReading,
    replay_eventtime,
)
from repro.quarantine.firewall import FirewallPolicy, ReadingFirewall
from repro.resilience.config import ResilienceConfig
from repro.timeseries.seasonal import SLOTS_PER_WEEK

CONSUMERS = ("c1", "c2", "c3")
WEEKS = 6
LATENESS = 8
MAX_DELAY = LATENESS + SLOTS_PER_WEEK
THEFT_START = 4 * SLOTS_PER_WEEK


def _service():
    return TheftMonitoringService(
        detector_factory=lambda: KLDDetector(significance=0.05),
        min_training_weeks=3,
        retrain_every_weeks=2,
        resilience=ResilienceConfig(min_coverage=0.5, failure_threshold=10_000),
        population=CONSUMERS,
        firewall=ReadingFirewall(FirewallPolicy(max_reading_kwh=50.0)),
        eventtime=EventTimeConfig(lateness_slots=LATENESS, grace_weeks=1),
    )


def _batches():
    """A deterministic scrambled delivery schedule with late readings."""
    schedule = {}
    for t in range(WEEKS * SLOTS_PER_WEEK):
        rng = np.random.default_rng((7, t))
        for i, cid in enumerate(CONSUMERS):
            value = float(
                np.random.default_rng((3, t, i)).gamma(2.0, 0.5)
            ) + 0.05
            if cid == "c1" and t >= THEFT_START:
                value *= 0.05
            delay = int(rng.integers(0, MAX_DELAY))
            schedule.setdefault(t + delay, []).append(
                StampedReading(cid, t, value)
            )
    return [schedule[tick] for tick in sorted(schedule)]


@pytest.fixture(scope="module")
def batches():
    return _batches()


@pytest.fixture(scope="module")
def uninterrupted(batches):
    """The reference run: every batch delivered, no crash, no WAL."""
    service = _service()
    ingestor = EventTimeIngestor(service)
    for batch in batches:
        ingestor.deliver(batch)
    ingestor.finish()
    return service, ingestor


def _assert_same_state(service, reference):
    assert service.reports == reference.reports
    assert service.revisions.report() == reference.revisions.report()
    for cid in CONSUMERS:
        assert np.array_equal(
            service.store.series(cid),
            reference.store.series(cid),
            equal_nan=True,
        )


class TestReplay:
    def test_replay_reproduces_finished_run(
        self, tmp_path, batches, uninterrupted
    ):
        reference, ref_ingestor = uninterrupted
        service = _service()
        wal = WriteAheadLog(tmp_path / "wal", metrics=service.metrics)
        ingestor = EventTimeIngestor(service, wal=wal)
        for batch in batches:
            ingestor.deliver(batch)
        ingestor.finish()
        wal.close()

        replayed, replay = replay_eventtime(tmp_path / "wal", _service)
        assert replay.finished
        assert replayed.finished
        assert replayed.deliveries == len(batches)
        assert replayed.tracker.watermark == ref_ingestor.tracker.watermark
        _assert_same_state(replayed.service, reference)

    def test_resume_continues_where_the_log_stops(
        self, tmp_path, batches, uninterrupted
    ):
        reference, _ = uninterrupted
        half = len(batches) // 2
        service = _service()
        wal = WriteAheadLog(tmp_path / "wal", metrics=service.metrics)
        ingestor = EventTimeIngestor(service, wal=wal)
        for batch in batches[:half]:
            ingestor.deliver(batch)
        wal.sync()
        wal.close()  # process stops mid-stream (clean half of a crash)

        resumed, replay = replay_eventtime(
            tmp_path / "wal", _service, resume=True
        )
        assert not replay.finished
        assert resumed.deliveries == half
        assert resumed.wal is not None
        for batch in batches[half:]:
            resumed.deliver(batch)
        resumed.finish()
        resumed.wal.close()
        _assert_same_state(resumed.service, reference)
        # The resumed WAL now replays as one complete run.
        final, replay = replay_eventtime(tmp_path / "wal", _service)
        assert replay.finished
        _assert_same_state(final.service, reference)


class TestCrashDuringReconciliation:
    def test_injected_crash_recovers_to_equivalent_run(
        self, tmp_path, batches, uninterrupted
    ):
        """Kill the WAL mid-stream — after scoring has begun, so late
        readings are being reconciled — then recover and finish."""
        reference, _ = uninterrupted
        # Crash deep enough that weeks have been scored and revisions
        # may already have been published.
        crash_at = int(len(batches) * 0.8)
        service = _service()
        wal = CrashingWAL(
            tmp_path / "wal",
            CrashPoint(before_record=crash_at),
            metrics=service.metrics,
        )
        ingestor = EventTimeIngestor(service, wal=wal)
        delivered = 0
        with pytest.raises(SimulatedCrash):
            for batch in batches:
                ingestor.deliver(batch)
                delivered += 1
        assert delivered == crash_at  # append-before-process: the
        # crashed batch never reached watermark or service state.
        assert service.weeks_completed > 0

        resumed, replay = replay_eventtime(
            tmp_path / "wal", _service, resume=True
        )
        survived = resumed.deliveries
        assert survived <= crash_at
        for batch in batches[survived:]:
            resumed.deliver(batch)
        resumed.finish()
        resumed.wal.close()
        _assert_same_state(resumed.service, reference)

    def test_torn_tail_crash_recovers(self, tmp_path, batches, uninterrupted):
        """A byte-level torn write loses at most the unsynced tail."""
        reference, _ = uninterrupted
        service = _service()
        wal = CrashingWAL(
            tmp_path / "wal",
            # Tears delivery batch 1543's frame inside its columns, about
            # three quarters into the 2051-batch run.
            CrashPoint(at_byte=147_170),
            metrics=service.metrics,
        )
        ingestor = EventTimeIngestor(service, wal=wal)
        with pytest.raises(SimulatedCrash):
            for batch in batches:
                ingestor.deliver(batch)

        resumed, replay = replay_eventtime(
            tmp_path / "wal", _service, resume=True
        )
        for batch in batches[resumed.deliveries :]:
            resumed.deliver(batch)
        resumed.finish()
        resumed.wal.close()
        _assert_same_state(resumed.service, reference)
