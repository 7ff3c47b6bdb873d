"""ElasticFleet: dispatch, lag isolation, healing, epochs, cold start."""

import pytest
from _fixtures import (
    CONSUMERS,
    WEEKS,
    detector_factory,
    readings,
    service_factory,
)

from repro.core.online import TheftMonitoringService
from repro.errors import ConfigurationError, SupervisorError
from repro.eventtime.config import EventTimeConfig
from repro.observability.metrics import MetricsRegistry
from repro.resilience.config import ResilienceConfig
from repro.scaleout import ElasticFleet
from repro.timeseries.seasonal import SLOTS_PER_WEEK


def _fleet(base_dir, **kwargs):
    kwargs.setdefault("n_shards", 2)
    return ElasticFleet(
        CONSUMERS, base_dir, service_factory, detector_factory, **kwargs
    )


class TestConstruction:
    def test_placement_comes_from_the_ring(self, tmp_path):
        from repro.scaleout import HashRing, balanced_assignments

        with _fleet(tmp_path) as fleet:
            expected = balanced_assignments(
                HashRing(fleet.shards), sorted(CONSUMERS)
            )
            assert {
                w.name: w.consumers for w in fleet.workers()
            } == expected

    def test_validation(self, tmp_path):
        with pytest.raises(ConfigurationError):
            ElasticFleet((), tmp_path, service_factory, detector_factory)
        with pytest.raises(ConfigurationError):
            _fleet(tmp_path / "a", n_shards=0)
        with pytest.raises(ConfigurationError):
            _fleet(tmp_path / "b", n_shards=7)  # more shards than meters
        with pytest.raises(ConfigurationError):
            _fleet(tmp_path / "c", hang_tolerance_cycles=0)

    def test_eventtime_services_rejected(self, tmp_path):
        def eventtime_factory(consumers):
            return TheftMonitoringService(
                detector_factory=detector_factory,
                min_training_weeks=2,
                resilience=ResilienceConfig(),
                eventtime=EventTimeConfig(lateness_slots=4),
                population=consumers,
            )

        with pytest.raises(ConfigurationError, match="event-time"):
            ElasticFleet(
                CONSUMERS, tmp_path, eventtime_factory, detector_factory
            )

    def test_close_is_idempotent(self, tmp_path):
        fleet = _fleet(tmp_path)
        fleet.close()
        fleet.close()
        with pytest.raises(SupervisorError):
            fleet.ingest_cycle(readings(0))

    def test_partial_build_failure_closes_cleanly(self, tmp_path):
        calls = []

        def exploding(consumers):
            calls.append(consumers)
            if len(calls) > 1:
                raise RuntimeError("boom building shard 2")
            return service_factory(consumers)

        with pytest.raises(RuntimeError, match="boom"):
            ElasticFleet(CONSUMERS, tmp_path, exploding, detector_factory)
        # The base_dir is fully released; a fresh fleet starts cleanly.
        with _fleet(tmp_path) as retry:
            retry.ingest_cycle(readings(0))


class TestDispatchAndWatermarks:
    def test_week_boundary_reports_every_shard(self, tmp_path):
        with _fleet(tmp_path) as fleet:
            for t in range(SLOTS_PER_WEEK):
                reports = fleet.ingest_cycle(readings(t))
            assert set(reports) == set(fleet.shards)
            assert all(
                r is not None and r.week_index == 0
                for r in reports.values()
            )
            assert fleet.frontier == SLOTS_PER_WEEK - 1
            assert fleet.low_watermark == SLOTS_PER_WEEK - 1

    def test_hung_shard_lags_alone(self, tmp_path):
        with _fleet(tmp_path, hang_tolerance_cycles=5) as fleet:
            for t in range(3):
                fleet.ingest_cycle(readings(t))
            victim = fleet.shards[0]
            fleet.hang(victim)
            for t in range(3, 6):
                fleet.ingest_cycle(readings(t))
            # Healthy shards kept ingesting at the frontier; only the
            # hung one trails it.  No fleet-wide lockstep stall.
            assert fleet.frontier == 5
            assert fleet.low_watermark == 2
            assert fleet.shard_lag(victim) == 3
            other = [s for s in fleet.shards if s != victim]
            assert all(fleet.shard_lag(s) == 0 for s in other)

    def test_hung_shard_heals_and_catches_up(self, tmp_path):
        with _fleet(tmp_path, hang_tolerance_cycles=2) as fleet:
            fleet.hang(fleet.shards[1])
            for t in range(2 * SLOTS_PER_WEEK):
                fleet.ingest_cycle(readings(t))
            # Healed (pending exceeded tolerance), fully caught up.
            assert fleet.low_watermark == 2 * SLOTS_PER_WEEK - 1
            assert fleet.restarts_total == 1
            streams = fleet.weekly_reports()
            assert all(len(reports) == 2 for reports in streams.values())

    def test_pending_queue_is_bounded_by_tolerance(self, tmp_path):
        with _fleet(tmp_path, hang_tolerance_cycles=3) as fleet:
            victim = fleet.shards[0]
            fleet.hang(victim)
            for t in range(50):
                fleet.ingest_cycle(readings(t))
                backlog = len(
                    next(
                        w for w in fleet.workers() if w.name == victim
                    ).pending
                )
                assert backlog <= 4  # tolerance + the cycle in flight


class TestHealing:
    def test_killed_shard_restarts_with_epoch_bump(self, tmp_path):
        metrics = MetricsRegistry()
        with _fleet(tmp_path, metrics=metrics) as fleet:
            victim = fleet.shards[0]
            before = fleet.epoch(victim)
            for t in range(10):
                fleet.ingest_cycle(readings(t))
            fleet.kill(victim)
            for t in range(10, SLOTS_PER_WEEK):
                fleet.ingest_cycle(readings(t))
            assert fleet.epoch(victim) == before + 1
            assert fleet.restarts_total == 1
            totals = metrics.totals()
            assert totals[("fdeta_fleet_restarts_total", ("killed",))] == 1.0
            # The dead worker's history was durable: week 0 is complete.
            assert [
                r.week_index for r in fleet.service(victim).reports
            ] == [0]

    def test_stale_wrapper_is_fenced_after_restart(self, tmp_path):
        with _fleet(tmp_path) as fleet:
            victim = fleet.shards[0]
            for t in range(3):
                fleet.ingest_cycle(readings(t))
            stale = next(
                w for w in fleet.workers() if w.name == victim
            ).monitor
            fleet.kill(victim)
            fleet.ingest_cycle(readings(3))  # triggers the restart
            from repro.errors import StaleWriterError

            with pytest.raises(StaleWriterError):
                stale.ingest_cycle(readings(4))

    def test_disk_full_shard_resumes_on_redelivery(self, tmp_path):
        """A one-shot ENOSPC on one shard's WAL degrades that shard
        only until the next cycle re-offers its pending head: the
        re-delivery probes the volume, finds space and ingests."""
        from repro.storage import FaultSchedule, FaultyIO, install_io

        cycles = WEEKS * SLOTS_PER_WEEK
        with _fleet(tmp_path / "clean") as fleet:
            for t in range(cycles):
                fleet.ingest_cycle(readings(t))
            baseline = fleet.merged_signature()
        schedule = FaultSchedule.parse("wal.*:write@1200=enospc")
        previous = install_io(FaultyIO(schedule))
        try:
            with _fleet(tmp_path / "full") as fleet:
                for t in range(cycles):
                    fleet.ingest_cycle(readings(t))
                assert schedule.exhausted
                for worker in fleet.workers():
                    assert worker.last_cycle == cycles - 1
                    assert not worker.pending
                    assert not worker.monitor.read_only
                totals = fleet.merged_metrics().totals()
                assert totals[
                    ("fdeta_storage_degraded_entries_total", ())
                ] == 1.0
                assert fleet.merged_signature() == baseline
        finally:
            install_io(previous)


class TestColdStart:
    def test_reopen_resumes_topology_and_epochs(self, tmp_path):
        fleet = _fleet(tmp_path)
        for t in range(SLOTS_PER_WEEK + 10):
            fleet.ingest_cycle(readings(t))
        shards = fleet.shards
        epochs = {name: fleet.epoch(name) for name in shards}
        fleet.close()

        reopened = ElasticFleet(
            (), tmp_path, service_factory, detector_factory
        )
        try:
            # Topology from the manifest; every epoch bumped so any
            # survivor of the previous incarnation is fenced out.
            assert reopened.shards == shards
            assert all(
                reopened.epoch(name) == epochs[name] + 1
                for name in shards
            )
            assert reopened.cycle == SLOTS_PER_WEEK + 10
            for t in range(reopened.cycle, WEEKS * SLOTS_PER_WEEK):
                reopened.ingest_cycle(readings(t))
            merged = reopened.merged_reports()
            assert [r.week_index for r in merged] == [0, 1, 2]
        finally:
            reopened.close()

    def test_refeed_overlap_is_skipped_not_double_counted(self, tmp_path):
        fleet = _fleet(tmp_path)
        for t in range(20):
            fleet.ingest_cycle(readings(t))
        fleet.close()
        reopened = ElasticFleet(
            (), tmp_path, service_factory, detector_factory
        )
        try:
            assert reopened.cycle == 20
            # A head-end that replays from 0 after the fleet recovered:
            # covered cycles are dropped before the durable layer, so
            # duplicate counters stay serial-equal to an undisturbed run.
            before = reopened.merged_metrics().totals()
            for worker in reopened.workers():
                worker.pending.extend(
                    (t, readings(t), None) for t in range(5)
                )
            reopened.ingest_cycle(readings(20))
            after = reopened.merged_metrics().totals()
            dup_keys = [
                k for k in after if "duplicate" in k[0] and after[k] > 0
            ]
            assert dup_keys == [
                k for k in before if "duplicate" in k[0] and before[k] > 0
            ]
        finally:
            reopened.close()

    def test_opens_a_manifestless_shard_directory(self, tmp_path):
        """Upgrade path: a directory holding per-shard WALs and
        checkpoints but no ``fleet.json`` (the layout fixed-shard runs
        wrote) recovers every shard and finishes bit-identical."""
        from repro.durability.recovery import DurableTheftMonitor
        from repro.durability.wal import WriteAheadLog
        from repro.scaleout import HashRing, balanced_assignments

        with _fleet(tmp_path / "baseline") as baseline:
            for t in range(WEEKS * SLOTS_PER_WEEK):
                baseline.ingest_cycle(readings(t))
            expected = baseline.merged_signature()

        # Write the old layout by hand: one durable monitor per
        # shard-NNNN directory, fsync per cycle, no fleet manifest.
        base = tmp_path / "old"
        names = ["shard-0000", "shard-0001"]
        placement = balanced_assignments(HashRing(names), sorted(CONSUMERS))
        monitors = {
            name: DurableTheftMonitor(
                service_factory(placement[name]),
                WriteAheadLog(str(base / name)),
                checkpoint_path=str(base / f"{name}.ckpt"),
                sync_every_cycles=1,
            )
            for name in names
        }
        crash = SLOTS_PER_WEEK + 40
        for t in range(crash):
            for name, monitor in monitors.items():
                if name == "shard-0001" and t == crash - 1:
                    continue  # crashed mid-dispatch: one shard is behind
                monitor.ingest_cycle(
                    {cid: readings(t)[cid] for cid in placement[name]},
                    cycle_index=t,
                )
        for monitor in monitors.values():
            monitor.close()  # the WAL only: no final checkpoint
        assert not (base / ElasticFleet.MANIFEST).exists()

        with _fleet(base) as fleet:
            assert (base / ElasticFleet.MANIFEST).exists()
            assert {w.name: w.consumers for w in fleet.workers()} == placement
            assert fleet.cycle == crash - 1  # resumes at the slowest shard
            assert fleet.service("shard-0000").cycles_ingested == crash
            for t in range(fleet.cycle, WEEKS * SLOTS_PER_WEEK):
                fleet.ingest_cycle(readings(t))
            assert fleet.merged_signature() == expected
            assert [r.week_index for r in fleet.merged_reports()] == [0, 1, 2]

    def test_corrupt_checkpoint_after_handoff_keeps_manifest_rosters(
        self, tmp_path
    ):
        """Releases and adoptions reach disk only through checkpoints,
        so a reopen that falls back to ``.prev`` right after a live
        rebalance must still see the post-move rosters."""
        import json

        fleet = _fleet(tmp_path)
        for t in range(SLOTS_PER_WEEK):
            fleet.ingest_cycle(readings(t))
        before = {w.name: set(w.consumers) for w in fleet.workers()}
        fleet.add_shard()
        moved_from = sorted(
            name
            for name, members in before.items()
            if members - set(fleet._worker(name).consumers)
        )
        assert moved_from
        for t in range(SLOTS_PER_WEEK, SLOTS_PER_WEEK + 20):
            fleet.ingest_cycle(readings(t))
        fleet.close()
        for name in fleet.shards:
            path = tmp_path / f"{name}.ckpt"
            data = bytearray(path.read_bytes())
            data[100] ^= 0xFF
            path.write_bytes(bytes(data))

        manifest = json.loads((tmp_path / ElasticFleet.MANIFEST).read_text())
        with ElasticFleet(
            (), tmp_path, service_factory, detector_factory
        ) as reopened:
            assert reopened.cycle == SLOTS_PER_WEEK + 20
            for name, entry in manifest["shards"].items():
                assert reopened.service(name).roster == tuple(
                    entry["consumers"]
                ), name
            totals = reopened.merged_metrics().totals()
            assert totals[
                ("fdeta_storage_checkpoint_corruptions_total", ())
            ] == len(manifest["shards"])
