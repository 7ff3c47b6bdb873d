"""Injected storage faults against the durable monitor and the WAL.

Every fault either retries to success, degrades to read-only, or rolls
back — never a raw :class:`OSError`, never a silently-lost reading.
"""

import os

import numpy as np
import pytest

from repro.core.kld import KLDDetector
from repro.core.online import TheftMonitoringService
from repro.durability.recovery import DurableTheftMonitor, recover_monitor
from repro.durability.wal import WriteAheadLog, list_segments, replay_wal
from repro.errors import (
    RecoveryError,
    StorageDegradedError,
    TransientStorageError,
    WALCorruptionError,
)
from repro.loadcontrol.queue import BackpressureSignal
from repro.observability.metrics import MetricsRegistry
from repro.quarantine import FirewallPolicy, ReadingFirewall
from repro.resilience.config import ResilienceConfig
from repro.resilience.retry import RetryPolicy
from repro.storage import FaultSchedule, FaultyIO
from repro.timeseries.seasonal import SLOTS_PER_WEEK

CONSUMERS = ("c1", "c2", "c3")
WEEKS = 3


def _factory():
    return KLDDetector(significance=0.05)


def _service(metrics=None):
    return TheftMonitoringService(
        detector_factory=_factory,
        min_training_weeks=2,
        retrain_every_weeks=4,
        resilience=ResilienceConfig(),
        population=CONSUMERS,
        metrics=metrics,
        firewall=ReadingFirewall(FirewallPolicy(max_reading_kwh=50.0)),
    )


def _readings(t):
    rng = np.random.default_rng((31, t))
    return {cid: float(rng.gamma(2.0, 0.5)) for cid in CONSUMERS}


def _signature(service):
    return [
        (r.week_index, tuple(a.consumer_id for a in r.alerts))
        for r in service.reports
    ]


def _baseline_signature(weeks=WEEKS):
    service = _service()
    for t in range(weeks * SLOTS_PER_WEEK):
        service.ingest_cycle(_readings(t))
    return _signature(service)


def _faulty(spec, metrics=None):
    return FaultyIO(FaultSchedule.parse(spec), metrics=metrics)


class TestTypedWALErrors:
    """Satellite: raw OSError from append/sync surfaces typed, not raw."""

    def test_transient_append_is_retried_to_success(self, tmp_path):
        metrics = MetricsRegistry()
        wal = WriteAheadLog(
            tmp_path / "wal",
            io=_faulty("wal.append:write@2=eio"),
            metrics=metrics,
        )
        wal.append_cycle(0, _readings(0))
        wal.close()
        records = list(replay_wal(tmp_path / "wal").cycles())
        assert [r.cycle for r in records] == [0]
        totals = metrics.totals()
        assert totals[("fdeta_storage_retries_total", ("wal.append",))] == 1.0

    def test_exhausted_append_budget_raises_typed_error(self, tmp_path):
        # Default RetryPolicy allows 2 attempts; two back-to-back EIO
        # injections exhaust it.  The caller must see the typed
        # hierarchy, never the raw OSError.
        wal = WriteAheadLog(
            tmp_path / "wal",
            io=_faulty("wal.append:write@2=eio,wal.append:write@3=eio"),
            retry=RetryPolicy(max_attempts=2),
        )
        with pytest.raises(TransientStorageError):
            wal.append_cycle(0, _readings(0))
        # The failed append rolled back: a later append lands clean and
        # the log replays exactly one record for the cycle.
        wal.append_cycle(0, _readings(0))
        wal.close()
        records = list(replay_wal(tmp_path / "wal").cycles())
        assert [r.cycle for r in records] == [0]

    def test_torn_append_rolls_back_and_retry_lands_clean(self, tmp_path):
        wal = WriteAheadLog(
            tmp_path / "wal", io=_faulty("wal.append:write@2=torn")
        )
        wal.append_cycle(0, _readings(0))
        wal.append_cycle(1, _readings(1))
        wal.close()
        replay = replay_wal(tmp_path / "wal")
        records = list(replay.cycles())
        assert [r.cycle for r in records] == [0, 1]
        assert records[0].readings == pytest.approx(_readings(0))
        assert not replay.torn_tail

    def test_sync_failure_is_typed_and_counted(self, tmp_path):
        metrics = MetricsRegistry()
        wal = WriteAheadLog(
            tmp_path / "wal",
            io=_faulty("wal.sync:fsync@1=eio,wal.sync:fsync@2=eio"),
            metrics=metrics,
            retry=RetryPolicy(max_attempts=2),
        )
        wal.append_cycle(0, _readings(0))
        with pytest.raises(TransientStorageError):
            wal.sync()
        totals = metrics.totals()
        assert (
            totals[("fdeta_storage_ops_total", ("wal.sync", "error"))] == 1.0
        )
        # The device recovers (no more scheduled faults): same WAL syncs.
        wal.sync()
        assert wal.last_synced_cycle == 0
        wal.close()


class TestDiskFullDegradedMode:
    def test_enospc_degrades_and_redelivery_converges(self, tmp_path):
        metrics = MetricsRegistry()
        signal = BackpressureSignal()
        service = _service(metrics=metrics)
        service.backpressure = signal
        monitor = DurableTheftMonitor(
            service,
            WriteAheadLog(
                tmp_path / "wal", io=_faulty("wal.append:write@400=enospc")
            ),
            checkpoint_path=str(tmp_path / "service.ckpt"),
        )
        failed_at = None
        for t in range(WEEKS * SLOTS_PER_WEEK):
            try:
                monitor.ingest_cycle(_readings(t))
            except StorageDegradedError:
                failed_at = t
                break
        assert failed_at is not None
        # The rejected cycle was never acknowledged: the service clock
        # stopped exactly where the volume filled.
        assert monitor.read_only
        assert service.cycles_ingested == failed_at
        assert signal.engaged
        assert metrics.gauge("fdeta_storage_degraded").value() == 1.0
        totals = metrics.totals()
        assert totals[("fdeta_storage_degraded_entries_total", ())] == 1.0
        # Space frees (the schedule is exhausted).  Re-delivering the
        # refused cycle probes the volume with a real durable write,
        # leaves degraded mode and ingests the cycle in the same call.
        monitor.ingest_cycle(_readings(failed_at))
        assert not monitor.read_only
        assert service.cycles_ingested == failed_at + 1
        assert not signal.engaged
        assert metrics.gauge("fdeta_storage_degraded").value() == 0.0
        # Re-delivery from the failed cycle converges on the
        # undisturbed run's verdicts.
        for t in range(failed_at + 1, WEEKS * SLOTS_PER_WEEK):
            monitor.ingest_cycle(_readings(t))
        monitor.close()
        assert _signature(service) == _baseline_signature()

    def test_resume_fails_while_the_volume_is_still_full(self, tmp_path):
        service = _service()
        monitor = DurableTheftMonitor(
            service,
            WriteAheadLog(
                tmp_path / "wal",
                io=_faulty(
                    "wal.append:write@2=enospc,wal.sync:fsync@1=enospc"
                ),
            ),
        )
        with pytest.raises(StorageDegradedError):
            monitor.ingest_cycle(_readings(0))
        # The re-delivery's probe hits the still-full disk: the cycle is
        # refused up front, with no clock movement.
        with pytest.raises(StorageDegradedError, match="still full"):
            monitor.ingest_cycle(_readings(0))
        assert monitor.read_only
        assert service.cycles_ingested == 0
        # The next re-delivery's probe finds space (schedule exhausted).
        monitor.ingest_cycle(_readings(0))
        assert not monitor.read_only
        assert service.cycles_ingested == 1
        monitor.close()


class TestRecoveryDiagnostics:
    """Satellite: clear diagnostics for missing dirs and empty segments."""

    def test_missing_wal_dir_without_checkpoint_is_explicit(self, tmp_path):
        with pytest.raises(RecoveryError, match="does not exist"):
            recover_monitor(
                tmp_path / "never-created",
                detector_factory=_factory,
                service_factory=_service,
            )

    def test_zero_length_non_final_segment_is_corruption(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal")
        wal.append_cycle(0, _readings(0))
        wal.close()
        first = list_segments(tmp_path / "wal")[0]
        seq = int(os.path.basename(first)[len("wal-") : -len(".seg")])
        hollow = os.path.join(
            os.fspath(tmp_path / "wal"), f"wal-{seq - 1:08d}.seg"
        )
        open(hollow, "wb").close()
        with pytest.raises(WALCorruptionError, match="zero-length"):
            replay_wal(tmp_path / "wal")

    def test_zero_length_final_segment_is_dropped_on_reopen(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal")
        wal.append_cycle(0, _readings(0))
        wal.close()
        last = list_segments(tmp_path / "wal")[-1]
        seq = int(os.path.basename(last)[len("wal-") : -len(".seg")])
        hollow = os.path.join(
            os.fspath(tmp_path / "wal"), f"wal-{seq + 1:08d}.seg"
        )
        open(hollow, "wb").close()
        reopened = WriteAheadLog(tmp_path / "wal")
        reopened.append_cycle(1, _readings(1))
        reopened.close()
        assert not os.path.exists(hollow)
        records = list(replay_wal(tmp_path / "wal").cycles())
        assert [r.cycle for r in records] == [0, 1]
