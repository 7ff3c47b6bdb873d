"""Ops-plane acceptance: health verdicts, SLO burn, stitched traces.

The fleet ops plane must answer three operator questions during the
kill–rebalance–heal chaos scenarios the fleet already survives:

* *which shard is the problem?* — a killed shard flags dead/unready
  with a reason, and flips back to ready once the next drain heals it;
* *are we burning error budget?* — an induced lag drives the
  ``verdict_staleness`` objective's burn rate above 1x;
* *what did that handoff actually do?* — the fleet tracer plus every
  shard tracer stitch into ONE tree rooted at ``shard_handoff``
  spanning all five protocol phases, even across a coordinator crash.
"""

import json

from _fixtures import (
    CONSUMERS,
    detector_factory,
    readings,
    service_factory,
)

from repro.observability.metrics import MetricsRegistry
from repro.observability.ops import (
    SLOTracker,
    StageProfiler,
    default_fleet_objectives,
)
from repro.observability.tracing import Tracer, stitch_traces
from repro.scaleout import ElasticFleet

HANDOFF_PHASE_NAMES = [
    "quiesce",
    "snapshot",
    "commit",
    "install",
    "finalize",
]


class SimulatedCrash(Exception):
    """Raised from a phase hook to model the coordinator dying."""


def _fleet(base_dir, **kwargs):
    kwargs.setdefault("n_shards", 2)
    kwargs.setdefault("metrics", MetricsRegistry())
    return ElasticFleet(
        CONSUMERS, base_dir, service_factory, detector_factory, **kwargs
    )


def _feed(fleet, cycles, start=None):
    start = fleet.cycle if start is None else start
    for t in range(start, start + cycles):
        fleet.ingest_cycle(readings(t))


class TestHealthVerdicts:
    def test_killed_shard_flags_unready_then_heals(self, tmp_path):
        with _fleet(tmp_path) as fleet:
            _feed(fleet, 3)
            fleet.kill("shard-0000")

            report = fleet.health_report()
            shard = report.shard("shard-0000")
            assert shard.state == "dead"
            assert not shard.live and not shard.ready
            assert "no running monitor" in shard.reasons
            assert [s.name for s in report.shards if not s.ready] == [
                "shard-0000"
            ]
            assert not report.fleet_live and not report.fleet_ready
            assert report.states == {
                "running": 1,
                "hung": 0,
                "dead": 1,
                "unreachable": 0,
            }
            ready_gauge = fleet.metrics.gauge(
                "fdeta_fleet_shard_ready", labels=("shard",)
            )
            assert ready_gauge.value(shard="shard-0000") == 0.0

            _feed(fleet, 1)  # the next drain heals the killed shard
            healed = fleet.health_report()
            shard = healed.shard("shard-0000")
            assert shard.state == "running"
            assert shard.live and shard.ready
            assert shard.reasons == ()
            assert shard.restarts == 1
            assert healed.fleet_live and healed.fleet_ready
            assert ready_gauge.value(shard="shard-0000") == 1.0

    def test_lagging_shard_is_live_but_unready(self, tmp_path):
        with _fleet(tmp_path, hang_tolerance_cycles=6) as fleet:
            _feed(fleet, 2)
            fleet.hang("shard-0001")
            _feed(fleet, 4)  # within tolerance: lags, not healed

            report = fleet.health_report(ready_lag_cycles=2)
            shard = report.shard("shard-0001")
            assert shard.state == "hung"
            assert shard.live  # liveness: don't replace a slow shard
            assert not shard.ready  # readiness: don't trust its verdicts
            assert shard.lag_cycles == 4
            assert shard.pending_cycles == 4
            assert any("lag 4 cycles" in r for r in shard.reasons)
            assert report.backlog_cycles == 4
            assert report.low_watermark < report.frontier

    def test_rollups_and_json_round_trip(self, tmp_path):
        with _fleet(tmp_path / "fleet") as fleet:
            _feed(fleet, 3)
            report = fleet.health_report()
            assert report.wal_bytes > 0  # every shard has WAL segments
            assert report.frontier == report.low_watermark == 2
            out = tmp_path / "health.json"
            report.write(out)
            payload = json.loads(out.read_text())
            assert payload["fleet_ready"] is True
            assert len(payload["shards"]) == 2
            gauge = fleet.metrics.gauge("fdeta_fleet_ready")
            assert gauge.value() == 1.0


class TestSLOBurnUnderChaos:
    def test_induced_lag_burns_the_staleness_budget(self, tmp_path):
        tracker = SLOTracker(default_fleet_objectives())
        with _fleet(
            tmp_path, hang_tolerance_cycles=8, slo=tracker
        ) as fleet:
            for _ in range(3):  # clean baseline points
                _feed(fleet, 1)
                fleet.observe_slo()
            baseline = fleet.slo_report().objective("verdict_staleness")
            assert baseline["burn_rate_short"] == 0.0

            fleet.hang("shard-0001")
            for _ in range(5):  # lag climbs past the 2-cycle threshold
                _feed(fleet, 1)
                fleet.observe_slo()

            report = fleet.slo_report()
            entry = report.objective("verdict_staleness")
            assert entry["burn_rate_short"] > 1.0
            assert entry["violated"]
            assert not report.healthy
            # Burn gauges mirror onto the fleet registry for scraping.
            burn = fleet.metrics.gauge(
                "fdeta_slo_burn_rate", labels=("objective", "window")
            )
            assert (
                burn.value(objective="verdict_staleness", window="short")
                > 1.0
            )

    def test_healthy_fleet_spends_no_budget(self, tmp_path):
        tracker = SLOTracker(default_fleet_objectives())
        with _fleet(tmp_path, slo=tracker) as fleet:
            for _ in range(4):
                _feed(fleet, 1)
                fleet.observe_slo()
            report = fleet.slo_report()
            assert report.healthy
            entry = report.objective("verdict_staleness")
            assert entry["budget_remaining"] == 1.0


class TestStitchedHandoffTraces:
    def test_live_add_shard_yields_one_five_phase_tree(self, tmp_path):
        with _fleet(tmp_path, tracer=Tracer(name="fleet")) as fleet:
            _feed(fleet, 2)
            name = fleet.add_shard()
            _feed(fleet, 1)

            roots = stitch_traces(fleet.tracers())
            assert len(roots) == 1
            root = roots[0]
            assert root["name"] == "shard_handoff"
            assert root["fields"]["kind"] == "add"
            phases = [c["name"] for c in root["children"]]
            assert phases == HANDOFF_PHASE_NAMES
            (install,) = [
                c for c in root["children"] if c["name"] == "install"
            ]
            moved = [c for c in install["children"]]
            assert {c["name"] for c in moved} == {
                "extract_consumer",
                "adopt_consumer",
            }
            # Every adoption landed on the new shard's own tracer.
            adopts = [
                c for c in moved if c["name"] == "adopt_consumer"
            ]
            assert adopts and all(
                c["fields"]["shard"] == name for c in adopts
            )
            assert all(
                c["span_id"].startswith(name + ":") for c in adopts
            )

    def test_crash_roll_forward_joins_the_original_trace(self, tmp_path):
        base = tmp_path / "fleet"
        crashed_tracer = Tracer(name="fleet")

        def crash_at_install(phase):
            if phase == "install":
                raise SimulatedCrash(phase)

        fleet = _fleet(base, tracer=crashed_tracer)
        try:
            _feed(fleet, 2)
            try:
                fleet.add_shard(on_phase=crash_at_install)
            except SimulatedCrash:
                pass
            else:  # pragma: no cover - the hook must fire
                raise AssertionError("crash hook did not fire")
        finally:
            fleet.close()

        recovery_tracer = Tracer(name="fleet-recovered")
        with ElasticFleet(
            (),
            base,
            service_factory,
            detector_factory,
            tracer=recovery_tracer,
        ) as healed:
            tracers = [crashed_tracer, *healed.tracers()]
            roots = stitch_traces(tracers)
            assert len(roots) == 1
            root = roots[0]
            assert root["name"] == "shard_handoff"
            # The crashed attempt got as far as starting install...
            attempted = [c["name"] for c in root["children"]]
            assert attempted[:4] == HANDOFF_PHASE_NAMES[:4]
            # ...and the cold-start roll-forward linked itself back to
            # the interrupted handoff via the manifest's trace context.
            (forward,) = [
                c
                for c in root["children"]
                if c["name"] == "handoff_roll_forward"
            ]
            replayed = [c["name"] for c in forward["children"]]
            assert replayed == ["install", "finalize"]
            (install,) = forward["children"][:1]
            assert {c["name"] for c in install["children"]} == {
                "extract_consumer",
                "adopt_consumer",
            }
            # The healed fleet is whole: three shards, all ready.
            _feed(healed, 1, start=healed.cycle)
            report = healed.health_report()
            assert len(report.shards) == 3
            assert report.fleet_ready


class TestFleetProfile:
    """A shard rebuilt by a heal restart stays in the fleet's profile."""

    CYCLES = 200
    KILL_AT = 120  # mid-week: the rebuilt shard replays its WAL

    def _killed_run(self, tmp_path, attach):
        profiler = StageProfiler()
        with _fleet(tmp_path) as fleet:
            attach(fleet, profiler)
            _feed(fleet, self.KILL_AT)
            fleet.kill("shard-0000")
            _feed(fleet, self.CYCLES - self.KILL_AT)
            assert fleet.restarts_total == 1
            shards = len(fleet.workers())
        return profiler.snapshot(), shards

    def test_profile_survives_a_heal_restart(self, tmp_path):
        def attach(fleet, profiler):
            fleet.profiler = profiler

        profile, shards = self._killed_run(tmp_path, attach)
        # Every shard-cycle ingested live is profiled exactly once; the
        # rebuilt shard's WAL replay runs before the attach.
        live = self.CYCLES * shards
        assert profile["ingest"]["calls"] == live
        assert profile["wal_append"]["calls"] == live

    def test_attach_once_to_the_live_services_undercounts(self, tmp_path):
        # The wiring the fleet attribute replaces: the profiler was set
        # on each live shard service once, so a rebuilt shard left it.
        def attach(fleet, profiler):
            for worker in fleet.workers():
                worker.monitor.service.profiler = profiler

        profile, shards = self._killed_run(tmp_path, attach)
        assert profile["ingest"]["calls"] < self.CYCLES * shards
