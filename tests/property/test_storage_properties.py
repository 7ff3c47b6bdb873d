"""Property-based storage chaos: no acked reading lost, no raw OSError.

Hypothesis drives randomized fault schedules (errno, occurrence, kind)
through the WAL and the durable monitor.  The contracts under test:

* every failure surfaces as the typed :class:`StorageError` hierarchy,
  never a raw :class:`OSError`;
* a failed append rolls back completely — retrying the same cycle can
  never duplicate or tear a record, so the final replay is exactly the
  delivered sequence;
* a lying fsync loses at most the dishonestly-acknowledged tail, and
  re-delivery after the power loss reconverges on the full log;
* disk-full degrades the monitor read-only without consuming the
  rejected cycle, and resume + re-delivery converges.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.kld import KLDDetector
from repro.core.online import TheftMonitoringService
from repro.durability.recovery import DurableTheftMonitor
from repro.durability.wal import WriteAheadLog, replay_wal
from repro.errors import StorageDegradedError, StorageError
from repro.resilience.config import ResilienceConfig
from repro.storage import FaultSchedule, FaultyIO
from repro.timeseries.seasonal import SLOTS_PER_WEEK

N_CYCLES = 48


def _readings(t):
    rng = np.random.default_rng((47, t))
    return {"c1": float(rng.gamma(2.0, 0.5)), "c2": float(t % 7)}


def _spec(events):
    return ",".join(f"{site}:{op}@{at}={kind}" for site, op, at, kind in events)


def _open_wal(directory, io):
    """Open the WAL, retrying typed construction failures.

    A fault can hit the very first segment-header write; the contract
    is a typed error and no half-born segment left behind, so simply
    trying again must succeed.
    """
    for _ in range(20):
        try:
            return WriteAheadLog(directory, segment_max_bytes=512, io=io)
        except StorageError:
            continue
    pytest.fail("WAL construction never succeeded")  # pragma: no cover


#: (site, op, occurrence, kind) tuples over the WAL's write path.
_wal_events = st.lists(
    st.tuples(
        st.sampled_from(["wal.append", "wal.sync"]),
        st.just("*"),
        st.integers(min_value=1, max_value=80),
        st.sampled_from(["eio", "torn", "enospc"]),
    ),
    min_size=1,
    max_size=6,
)


class TestWALUnderRandomFaults:
    @given(events=_wal_events)
    @settings(max_examples=50, deadline=None)
    def test_every_delivered_cycle_survives_exactly_once(
        self, tmp_path_factory, events
    ):
        directory = tmp_path_factory.mktemp("wal")
        io = FaultyIO(FaultSchedule.parse(_spec(events)))
        wal = _open_wal(directory, io)
        for t in range(N_CYCLES):
            for attempt in range(20):
                try:
                    wal.append_cycle(t, _readings(t))
                    break
                except StorageError:
                    continue  # typed, rolled back: re-deliver the cycle
            else:  # pragma: no cover - schedule is finite
                pytest.fail(f"cycle {t} never landed")
            try:
                wal.sync()
            except StorageError:
                pass  # durability deferred to a later sync
        for _ in range(20):
            try:
                wal.sync()
                break
            except StorageError:
                continue
        try:
            wal.close()
        except StorageError:
            pass  # close syncs and may hit a fault; the handle is
            # released either way and the retried sync above already
            # made every delivered cycle durable.
        replay = replay_wal(directory)
        assert [r.cycle for r in replay.cycles()] == list(range(N_CYCLES))
        assert not replay.torn_tail

    @given(events=_wal_events)
    @settings(max_examples=50, deadline=None)
    def test_failures_are_always_typed_storage_errors(
        self, tmp_path_factory, events
    ):
        directory = tmp_path_factory.mktemp("wal")
        io = FaultyIO(FaultSchedule.parse(_spec(events)))
        wal = _open_wal(directory, io)
        for t in range(N_CYCLES):
            try:
                wal.append_cycle(t, _readings(t))
                wal.sync()
            except StorageError:
                continue
            except OSError as exc:  # pragma: no cover - the defect itself
                pytest.fail(f"raw OSError escaped the WAL: {exc!r}")
        try:
            wal.close()
        except StorageError:
            pass  # close syncs, which may hit a scheduled fault — typed
        except OSError as exc:  # pragma: no cover - the defect itself
            pytest.fail(f"raw OSError escaped close: {exc!r}")


class TestLyingFsyncPowerLoss:
    @given(
        lying_at=st.lists(
            st.integers(min_value=1, max_value=30),
            min_size=1,
            max_size=4,
            unique=True,
        ),
        sync_every=st.sampled_from([1, 3, 5]),
    )
    @settings(max_examples=40, deadline=None)
    def test_power_loss_keeps_an_honest_prefix_and_redelivery_heals(
        self, tmp_path_factory, lying_at, sync_every
    ):
        directory = tmp_path_factory.mktemp("wal")
        spec = ",".join(f"wal.sync:fsync@{at}=lying_fsync" for at in lying_at)
        schedule = FaultSchedule.parse(spec)
        io = FaultyIO(schedule)
        wal = WriteAheadLog(directory, io=io)
        honest_acked = -1
        for t in range(N_CYCLES):
            wal.append_cycle(t, _readings(t))
            if (t + 1) % sync_every == 0:
                before = schedule.injected
                wal.sync()
                if schedule.injected == before:
                    honest_acked = t
        # Power cut before close: the lying controller's cache is gone.
        io.simulate_power_loss()
        replay = replay_wal(directory)
        cycles = [r.cycle for r in replay.cycles()]
        # Clean contiguous prefix, covering at least every honest ack.
        assert cycles == list(range(len(cycles)))
        assert len(cycles) - 1 >= honest_acked
        # Re-delivery of the lost tail reconverges on the full log.
        with WriteAheadLog(directory) as healed:
            for t in range(len(cycles), N_CYCLES):
                healed.append_cycle(t, _readings(t))
            healed.sync()
        final = replay_wal(directory)
        assert [r.cycle for r in final.cycles()] == list(range(N_CYCLES))


class TestMonitorUnderDiskFull:
    @given(at=st.integers(min_value=1, max_value=120))
    @settings(max_examples=25, deadline=None)
    def test_degrade_resume_redeliver_never_loses_a_cycle(
        self, tmp_path_factory, at
    ):
        directory = tmp_path_factory.mktemp("wal")
        service = TheftMonitoringService(
            detector_factory=lambda: KLDDetector(significance=0.05),
            min_training_weeks=2,
            retrain_every_weeks=4,
            resilience=ResilienceConfig(),
            population=("c1", "c2"),
        )
        io = FaultyIO(
            FaultSchedule.parse(f"wal.append:write@{at}=enospc")
        )
        # Occurrence 1 is the constructor's own segment header: a typed
        # disk-full with nothing half-born, so one retry must succeed.
        try:
            wal = WriteAheadLog(directory, io=io)
        except StorageError:
            wal = WriteAheadLog(directory, io=io)
        monitor = DurableTheftMonitor(service, wal)
        n = SLOTS_PER_WEEK // 4
        t = 0
        degradations = 0
        while t < n:
            try:
                monitor.ingest_cycle(_readings(t), cycle_index=t)
                t += 1
            except StorageDegradedError:
                degradations += 1
                assert degradations < 5  # the single fault fires once
                assert monitor.read_only
                # The rejected cycle was not consumed; the loop
                # re-delivers it, and that call probes the volume.
                assert service.cycles_ingested == t
        monitor.close()
        assert service.cycles_ingested == n
        replay = replay_wal(directory)
        assert [r.cycle for r in replay.cycles()] == list(range(n))
