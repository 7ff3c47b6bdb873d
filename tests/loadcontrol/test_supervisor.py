"""Shard-fleet supervision: placement, heartbeats, kill/hang/crash healing.

These are the supervision checks every sharded ``monitor`` run relies
on, run against :class:`repro.scaleout.ElasticFleet` (the one shard
fleet).  The load-bearing claim: a shard that is hard-killed (or hangs,
or crashes) mid-week is rebuilt from checkpoint + WAL replay and
produces **identical** weekly reports to a fleet that was never
disturbed.
"""

import numpy as np
import pytest

from repro.core.kld import KLDDetector
from repro.core.online import TheftMonitoringService
from repro.errors import ConfigurationError, SupervisorError, WorkerCrashed
from repro.loadcontrol.queue import BackpressureSignal
from repro.observability.metrics import MetricsRegistry
from repro.resilience.config import ResilienceConfig
from repro.scaleout import ElasticFleet
from repro.timeseries.seasonal import SLOTS_PER_WEEK

CONSUMERS = tuple(f"c{i}" for i in range(1, 7))
WEEKS = 3
THEFT_START = 2 * SLOTS_PER_WEEK  # c1 starts under-reporting in week 2
SHARD_0, SHARD_1 = "shard-0000", "shard-0001"


def _factory():
    return KLDDetector(significance=0.05)


def _service_factory(consumers):
    return TheftMonitoringService(
        detector_factory=_factory,
        min_training_weeks=2,
        resilience=ResilienceConfig(),
        population=consumers,
    )


def _fleet(base_dir, roster=CONSUMERS, service_factory=_service_factory, **kwargs):
    kwargs.setdefault("n_shards", 2)
    return ElasticFleet(roster, base_dir, service_factory, _factory, **kwargs)


def _placement(base_dir, roster, n_shards):
    with _fleet(base_dir, roster=roster, n_shards=n_shards) as fleet:
        return tuple(worker.consumers for worker in fleet.workers())


def _readings(t):
    rng = np.random.default_rng((17, t))
    out = {cid: float(rng.gamma(2.0, 0.5)) for cid in CONSUMERS}
    if t >= THEFT_START:
        out["c1"] *= 0.05
    return out


def _signatures(fleet):
    """Byte-comparable view of every shard's weekly reports."""
    return {
        name: [
            (
                report.week_index,
                tuple(
                    (a.consumer_id, a.nature, a.score, a.threshold, a.coverage)
                    for a in report.alerts
                ),
                report.balance_failures,
                tuple(sorted(report.coverage.items())),
                report.suppressed,
                report.quarantined,
                report.shed,
            )
            for report in service.reports
        ]
        for name, service in fleet.services().items()
    }


def _run_fleet(base_dir, chaos=None, metrics=None):
    """Run a 2-shard fleet for WEEKS weeks; ``chaos(fleet, t)`` is
    invoked before every cycle to inject faults."""
    with _fleet(base_dir, metrics=metrics) as fleet:
        for t in range(WEEKS * SLOTS_PER_WEEK):
            if chaos is not None:
                chaos(fleet, t)
            fleet.ingest_cycle(_readings(t))
        return _signatures(fleet), fleet.restarts_total


def _restarts(metrics, reason):
    return metrics.counter(
        "fdeta_fleet_restarts_total", labels=("reason",)
    ).value(reason=reason)


class TestShardRoster:
    def test_split_is_order_insensitive(self, tmp_path):
        split = _placement(tmp_path / "a", ("b", "d", "a", "c"), 2)
        assert split == _placement(tmp_path / "b", ("a", "b", "c", "d"), 2)
        assert sorted(cid for shard in split for cid in shard) == [
            "a",
            "b",
            "c",
            "d",
        ]

    def test_single_shard_keeps_everyone(self, tmp_path):
        assert _placement(tmp_path, CONSUMERS, 1) == (CONSUMERS,)

    def test_invalid_shard_counts(self, tmp_path):
        with pytest.raises(ConfigurationError):
            _fleet(tmp_path / "a", n_shards=0)
        with pytest.raises(ConfigurationError):
            _fleet(tmp_path / "b", roster=("a", "b"), n_shards=3)

    def test_make_shards_layout(self, tmp_path):
        """The ``shard-NNNN/`` + ``shard-NNNN.ckpt`` layout and placement
        that fixed-shard state directories were written with."""
        with _fleet(tmp_path) as fleet:
            first, second = fleet.workers()
            assert fleet.shards == (SHARD_0, SHARD_1)
            assert first.consumers == ("c1", "c3", "c4", "c6")
            assert second.consumers == ("c2", "c5")
            assert first.wal_dir == str(tmp_path / SHARD_0)
            assert second.checkpoint_path == str(tmp_path / f"{SHARD_1}.ckpt")


class TestSupervisorValidation:
    def test_needs_shards(self, tmp_path):
        with pytest.raises(ConfigurationError):
            _fleet(tmp_path, roster=())

    def test_unknown_shard_queries_raise(self, tmp_path):
        with _fleet(tmp_path) as fleet:
            with pytest.raises(SupervisorError):
                fleet.kill("shard-0099")
            with pytest.raises(SupervisorError):
                fleet.service("shard-0099")


class TestLifecycleHardening:
    def test_close_is_idempotent(self, tmp_path):
        fleet = _fleet(tmp_path)
        fleet.ingest_cycle(_readings(0))
        fleet.close()
        fleet.close()  # second close must be a no-op, not a crash
        assert all(w.monitor is None for w in fleet.workers())

    def test_exit_after_close_does_not_raise(self, tmp_path):
        with _fleet(tmp_path) as fleet:
            fleet.close()

    def test_partial_build_failure_closes_built_workers(
        self, tmp_path, monkeypatch
    ):
        """A factory blowing up on shard 1 must not leak shard 0's WAL."""
        import repro.scaleout.fleet as fleet_module

        built = []

        class RecordingWAL(fleet_module.WriteAheadLog):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)

        monkeypatch.setattr(fleet_module, "WriteAheadLog", RecordingWAL)

        def exploding_factory(consumers):
            if built:
                raise RuntimeError("boom while building shard 1")
            return _service_factory(consumers)

        with pytest.raises(RuntimeError, match="boom"):
            _fleet(tmp_path, service_factory=exploding_factory)
        assert len(built) == 1  # shard 0 was built before the failure
        assert all(wal._closed for wal in built)
        # The directory is fully released: a fresh fleet starts cleanly.
        with _fleet(tmp_path) as retry:
            retry.ingest_cycle(_readings(0))

    def test_close_survives_worker_close_failure(self, tmp_path):
        fleet = _fleet(tmp_path)
        worker = fleet.workers()[0]

        class ExplodingClose:
            def __init__(self, inner):
                self.inner = inner

            def __getattr__(self, name):
                return getattr(self.inner, name)

            def close(self):
                raise OSError("disk pulled mid-close")

        exploding = ExplodingClose(worker.monitor)
        worker.monitor = exploding
        fleet.close()  # must swallow the failure, close the rest
        assert all(w.monitor is None for w in fleet.workers())
        exploding.inner.close()


class TestLockstepDispatch:
    def test_week_boundary_reports_all_shards(self, tmp_path):
        with _fleet(tmp_path) as fleet:
            for t in range(SLOTS_PER_WEEK):
                reports = fleet.ingest_cycle(_readings(t))
            assert fleet.cycle == SLOTS_PER_WEEK
            assert set(reports) == {SHARD_0, SHARD_1}
            assert all(
                r is not None and r.week_index == 0 for r in reports.values()
            )
            for worker in fleet.workers():
                assert worker.beats == SLOTS_PER_WEEK
                assert worker.last_cycle == SLOTS_PER_WEEK - 1

    def test_off_boundary_cycles_return_none(self, tmp_path):
        with _fleet(tmp_path) as fleet:
            reports = fleet.ingest_cycle(_readings(0))
            assert reports == {SHARD_0: None, SHARD_1: None}


class TestKillHealing:
    def test_killed_shard_recovers_bit_identical_reports(self, tmp_path):
        baseline, baseline_restarts = _run_fleet(tmp_path / "baseline")
        assert baseline_restarts == 0
        # The thief's shard produces a scored week with c1 on top.
        week2 = baseline[SHARD_0][2]
        scores = dict((cid, score) for cid, _, score, _, _ in week2[1])
        assert scores and max(scores, key=scores.get) == "c1"

        metrics = MetricsRegistry()

        def chaos(fleet, t):
            if t == THEFT_START + 50:  # mid-week-2, after theft starts
                fleet.kill(SHARD_0)

        killed, restarts = _run_fleet(
            tmp_path / "killed", chaos=chaos, metrics=metrics
        )
        assert restarts == 1
        assert _restarts(metrics, "killed") == 1
        assert killed == baseline

    def test_kill_marks_worker_dead_until_next_dispatch(self, tmp_path):
        metrics = MetricsRegistry()
        with _fleet(tmp_path, metrics=metrics) as fleet:
            for t in range(10):
                fleet.ingest_cycle(_readings(t))
            fleet.kill(SHARD_0)
            gauge = metrics.gauge("fdeta_fleet_workers", labels=("state",))
            assert gauge.value(state="dead") == 1
            with pytest.raises(SupervisorError):
                fleet.service(SHARD_0)
            fleet.ingest_cycle(_readings(10))
            assert gauge.value(state="dead") == 0
            # Recovery from checkpoint + WAL caught the shard up.
            assert fleet.service(SHARD_0).cycles_ingested == fleet.cycle

    def test_backpressure_reattached_after_restart(self, tmp_path):
        signal = BackpressureSignal()
        with _fleet(tmp_path, hang_tolerance_cycles=2) as fleet:
            fleet.backpressure = signal
            assert all(
                service.backpressure is signal
                for service in fleet.services().values()
            )
            fleet.ingest_cycle(_readings(0))
            fleet.kill(SHARD_0)
            fleet.ingest_cycle(_readings(1))
            assert fleet.restarts_total == 1
            assert fleet.service(SHARD_0).backpressure is signal
            fleet.hang(SHARD_1)
            for t in range(2, 5):
                fleet.ingest_cycle(_readings(t))
            assert fleet.restarts_total == 2  # healed past the tolerance
            assert fleet.service(SHARD_1).backpressure is signal

    def test_backpressure_attached_to_added_shard(self, tmp_path):
        signal = BackpressureSignal()
        with _fleet(tmp_path) as fleet:
            fleet.backpressure = signal
            fleet.ingest_cycle(_readings(0))
            added = fleet.add_shard()
            assert fleet.service(added).backpressure is signal
            assert all(
                service.backpressure is signal
                for service in fleet.services().values()
            )
            fleet.backpressure = None
            assert all(
                service.backpressure is None
                for service in fleet.services().values()
            )


class TestHangHealing:
    def test_hung_shard_restarts_after_tolerance(self, tmp_path):
        metrics = MetricsRegistry()
        with _fleet(
            tmp_path, hang_tolerance_cycles=2, metrics=metrics
        ) as fleet:
            for t in range(10):
                fleet.ingest_cycle(_readings(t))
            fleet.hang(SHARD_0)
            # Within tolerance: no ingestion, no beats, no restart.
            for t in (10, 11):
                reports = fleet.ingest_cycle(_readings(t))
                assert reports[SHARD_0] is None
                assert reports[SHARD_1] is None  # off week boundary
            assert fleet.workers()[0].beats == 10
            assert fleet.restarts_total == 0
            assert metrics.gauge(
                "fdeta_fleet_workers", labels=("state",)
            ).value(state="hung") == 1
            # Past tolerance: restart, drain the missed cycles.
            fleet.ingest_cycle(_readings(12))
            assert fleet.restarts_total == 1
            assert _restarts(metrics, "hang") == 1
            assert fleet.service(SHARD_0).cycles_ingested == fleet.cycle
            assert fleet.service(SHARD_1).cycles_ingested == fleet.cycle

    def test_hang_heals_to_bit_identical_reports(self, tmp_path):
        baseline, _ = _run_fleet(tmp_path / "baseline")

        def chaos(fleet, t):
            if t == THEFT_START + 100:
                fleet.hang(SHARD_1)

        healed, restarts = _run_fleet(tmp_path / "hung", chaos=chaos)
        assert restarts == 1
        assert healed == baseline


class TestCrashHealing:
    def test_crash_is_retried_same_cycle(self, tmp_path):
        """A worker raising WorkerCrashed mid-cycle is restarted from
        checkpoint + WAL and the same cycle is re-ingested."""
        crash_at = {THEFT_START + 7}

        def chaos(fleet, t):
            if t != 0:
                return
            # Patch shard 0's live monitor: its successor after the
            # restart is a fresh object, so the crash fires once.
            monitor = fleet.workers()[0].monitor
            real = monitor.ingest_cycle

            def flaky(reported, snapshot=None, cycle_index=None, **kwargs):
                if cycle_index in crash_at:
                    crash_at.discard(cycle_index)
                    raise WorkerCrashed(f"injected at cycle {cycle_index}")
                return real(
                    reported, snapshot, cycle_index=cycle_index, **kwargs
                )

            monitor.ingest_cycle = flaky

        baseline, _ = _run_fleet(tmp_path / "baseline")
        metrics = MetricsRegistry()
        crashed, restarts = _run_fleet(
            tmp_path / "crashed", chaos=chaos, metrics=metrics
        )
        assert not crash_at  # the injected crash fired
        assert restarts == 1
        assert _restarts(metrics, "crash") == 1
        assert crashed == baseline
