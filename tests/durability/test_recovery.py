"""Checkpoint + WAL reconciliation and crash-recovery equivalence."""

import numpy as np
import pytest

from repro.core.kld import KLDDetector
from repro.core.online import TheftMonitoringService
from repro.durability.crash import CrashingWAL, CrashPoint, SimulatedCrash
from repro.durability.recovery import DurableTheftMonitor, recover_monitor
from repro.durability.wal import WriteAheadLog
from repro.errors import ConfigurationError, RecoveryError
from repro.quarantine import FirewallPolicy, ReadingFirewall
from repro.resilience.config import ResilienceConfig
from repro.timeseries.seasonal import SLOTS_PER_WEEK

CONSUMERS = ("c1", "c2", "c3")


def _factory():
    return KLDDetector(significance=0.05)


def _service():
    return TheftMonitoringService(
        detector_factory=_factory,
        min_training_weeks=2,
        retrain_every_weeks=4,
        resilience=ResilienceConfig(),
        population=CONSUMERS,
        firewall=ReadingFirewall(FirewallPolicy(max_reading_kwh=50.0)),
    )


def _readings(t):
    """Deterministic per-cycle readings with sprinkled malformed values."""
    rng = np.random.default_rng((11, t))
    out = {cid: float(rng.gamma(2.0, 0.5)) for cid in CONSUMERS}
    if t % 97 == 0:
        out["c1"] = float("nan")
    if t % 113 == 0:
        out["c2"] = -1.0
    return out


def _alert_signature(service):
    return [
        (r.week_index, tuple(a.consumer_id for a in r.alerts))
        for r in service.reports
    ]


class TestRecoverMonitor:
    def test_fresh_service_required_without_checkpoint(self, tmp_path):
        with pytest.raises(ConfigurationError):
            recover_monitor(tmp_path / "wal")

    def test_checkpoint_requires_detector_factory(self, tmp_path):
        service = _service()
        ckpt = tmp_path / "ckpt.bin"
        service.checkpoint(ckpt)
        with pytest.raises(ConfigurationError):
            recover_monitor(tmp_path / "wal", checkpoint_path=ckpt)

    def test_replays_wal_into_fresh_service(self, tmp_path):
        with WriteAheadLog(tmp_path / "wal") as wal:
            for t in range(10):
                wal.append_cycle(t, _readings(t))
            wal.sync()
        result = recover_monitor(tmp_path / "wal", service_factory=_service)
        assert not result.restored_from_checkpoint
        assert result.replayed_cycles == 10
        assert result.service.cycles_ingested == 10

    def test_skips_records_covered_by_checkpoint(self, tmp_path):
        ckpt = tmp_path / "ckpt.bin"
        service = _service()
        with WriteAheadLog(tmp_path / "wal") as wal:
            for t in range(8):
                readings = _readings(t)
                wal.append_cycle(t, readings)
                wal.sync()
                service.ingest_cycle(readings)
                if t == 4:
                    service.checkpoint(ckpt)
        result = recover_monitor(
            tmp_path / "wal",
            detector_factory=_factory,
            checkpoint_path=ckpt,
            service_factory=_service,
        )
        assert result.restored_from_checkpoint
        assert result.skipped_records == 5  # cycles 0..4 covered
        assert result.replayed_cycles == 3  # cycles 5..7 replayed
        assert result.service.cycles_ingested == 8

    def test_wal_gap_raises(self, tmp_path):
        with WriteAheadLog(tmp_path / "wal") as wal:
            wal.append_cycle(0, _readings(0))
            wal.append_cycle(2, _readings(2))  # cycle 1 lost
            wal.sync()
        with pytest.raises(RecoveryError):
            recover_monitor(tmp_path / "wal", service_factory=_service)


class TestDurableTheftMonitor:
    def test_sync_cadence_validated(self, tmp_path):
        with WriteAheadLog(tmp_path / "wal") as wal:
            with pytest.raises(ConfigurationError):
                DurableTheftMonitor(_service(), wal, sync_every_cycles=0)

    def test_week_close_adds_no_empty_sync(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal")
        calls = []
        real_sync = wal.sync
        wal.sync = lambda: calls.append(1) or real_sync()
        with DurableTheftMonitor(
            _service(), wal, checkpoint_path=tmp_path / "ckpt.bin"
        ) as monitor:
            for t in range(SLOTS_PER_WEEK + 1):
                monitor.ingest_cycle(_readings(t))
            # One sync per cycle at the default cadence: the week close
            # found its cycle already durable and did not sync again.
            assert monitor.service.weeks_completed == 1
            assert len(calls) == wal.syncs == SLOTS_PER_WEEK + 1

    def test_rejects_skipped_ahead_cycles(self, tmp_path):
        with DurableTheftMonitor(
            _service(), WriteAheadLog(tmp_path / "wal")
        ) as monitor:
            monitor.ingest_cycle(_readings(0))
            with pytest.raises(RecoveryError):
                monitor.ingest_cycle(_readings(5), cycle_index=5)

    def test_redelivered_cycle_is_idempotent(self, tmp_path):
        service = _service()
        with DurableTheftMonitor(
            service, WriteAheadLog(tmp_path / "wal")
        ) as monitor:
            clean = {cid: 1.0 for cid in CONSUMERS}
            monitor.ingest_cycle(clean)
            monitor.ingest_cycle(clean)
            before = {cid: service.store.length(cid) for cid in CONSUMERS}
            # Re-deliver cycle 0: absorbed, clock does not move.
            monitor.ingest_cycle(
                {cid: 2.0 for cid in CONSUMERS}, cycle_index=0
            )
            assert service.cycles_ingested == 2
            assert monitor.redelivered_cycles == 1
            for cid in CONSUMERS:
                assert service.store.length(cid) == before[cid]
                assert service.store.series(cid)[0] == 2.0  # last write wins

    def test_redelivery_ignores_garbage(self, tmp_path):
        service = _service()
        with DurableTheftMonitor(
            service, WriteAheadLog(tmp_path / "wal")
        ) as monitor:
            monitor.ingest_cycle({cid: 1.0 for cid in CONSUMERS})
            monitor.ingest_cycle(
                {"c1": float("nan"), "c2": -4.0, "c3": "junk"},
                cycle_index=0,
            )
            assert service.store.series("c1")[0] == 1.0
            assert service.store.series("c2")[0] == 1.0
            assert service.store.series("c3")[0] == 1.0

    def test_weekly_checkpoint_and_compaction(self, tmp_path):
        ckpt = tmp_path / "ckpt.bin"
        wal = WriteAheadLog(tmp_path / "wal", segment_max_bytes=4096)
        first = str(tmp_path / "wal" / "wal-00000001.seg")
        with DurableTheftMonitor(
            _service(), wal, checkpoint_path=ckpt
        ) as monitor:
            for t in range(SLOTS_PER_WEEK + 5):
                monitor.ingest_cycle(_readings(t))
            assert ckpt.exists()
            # Compaction lags one generation: the log must still replay
            # a fallback to ``.prev``, so nothing is dropped yet.
            assert wal.segments()[0] == first
            for t in range(SLOTS_PER_WEEK + 5, 2 * SLOTS_PER_WEEK + 5):
                monitor.ingest_cycle(_readings(t))
            # The second boundary compacts what the first checkpoint
            # (now the previous generation) covers.
            assert wal.segments()[0] != first


class TestCrashRecoveryEquivalence:
    """The acceptance criterion: crash + recover == never crashed."""

    WEEKS = 3

    def _baseline(self):
        service = _service()
        for t in range(self.WEEKS * SLOTS_PER_WEEK):
            service.ingest_cycle(_readings(t))
        return service

    def test_hard_crash_mid_week_recovers_equivalently(self, tmp_path):
        baseline = self._baseline()
        ckpt = tmp_path / "ckpt.bin"
        wal_dir = tmp_path / "wal"

        crash_at = SLOTS_PER_WEEK + 123  # mid-second-week
        service = _service()
        monitor = DurableTheftMonitor(
            service, WriteAheadLog(wal_dir), checkpoint_path=ckpt
        )
        for t in range(crash_at):
            monitor.ingest_cycle(_readings(t))
        # Hard kill: no close(), no final sync.  Closing the raw file
        # under the buffer releases the descriptor without flushing a
        # single buffered byte, as a dead process would.
        monitor.wal._handle.raw.close()
        del monitor

        result = recover_monitor(
            wal_dir,
            detector_factory=_factory,
            checkpoint_path=ckpt,
            service_factory=_service,
        )
        recovered = result.service
        assert recovered.cycles_ingested == crash_at
        with DurableTheftMonitor(
            recovered, WriteAheadLog(wal_dir), checkpoint_path=ckpt
        ) as monitor:
            for t in range(recovered.cycles_ingested, self.WEEKS * SLOTS_PER_WEEK):
                monitor.ingest_cycle(_readings(t))

        assert recovered.weeks_completed == baseline.weeks_completed
        assert _alert_signature(recovered) == _alert_signature(baseline)
        assert (
            recovered.firewall.store.counts_by_reason()
            == baseline.firewall.store.counts_by_reason()
        )

    def test_torn_write_crash_recovers_equivalently(self, tmp_path):
        baseline = self._baseline()
        wal_dir = tmp_path / "wal"
        service = _service()
        wal = CrashingWAL(wal_dir, CrashPoint(at_byte=20_000))
        monitor = DurableTheftMonitor(service, wal)
        ingested = 0
        with pytest.raises(SimulatedCrash):
            for t in range(self.WEEKS * SLOTS_PER_WEEK):
                monitor.ingest_cycle(_readings(t))
                ingested += 1

        result = recover_monitor(wal_dir, service_factory=_service)
        recovered = result.service
        # Prefix consistency: nothing but the unsynced tail is lost.
        assert recovered.cycles_ingested >= ingested
        with DurableTheftMonitor(recovered, WriteAheadLog(wal_dir)) as m2:
            for t in range(
                recovered.cycles_ingested, self.WEEKS * SLOTS_PER_WEEK
            ):
                m2.ingest_cycle(_readings(t))
        assert _alert_signature(recovered) == _alert_signature(baseline)
