"""Merged verdict/metrics plane: >2 shards, collisions, restarts."""

from _fixtures import (
    CONSUMERS,
    detector_factory,
    readings,
    service_factory,
)

from repro.observability.metrics import MetricsRegistry
from repro.scaleout import (
    ElasticFleet,
    merge_metrics,
    merge_weekly_reports,
    merged_signature,
    report_signature,
)
from repro.timeseries.seasonal import SLOTS_PER_WEEK


class TestMetricsMerge:
    def test_three_registries_counters_add(self):
        registries = []
        for n in (1, 2, 3):
            registry = MetricsRegistry()
            registry.counter("fdeta_test_total", "t").inc(n)
            registries.append(registry)
        merged = merge_metrics(registries)
        assert merged.totals()[("fdeta_test_total", ())] == 6.0

    def test_label_collisions_merge_per_sample(self):
        """The same metric name with different label values must merge
        sample-by-sample, and identical label sets must add."""
        a, b, c = MetricsRegistry(), MetricsRegistry(), MetricsRegistry()
        for registry, shard in ((a, "s0"), (b, "s1"), (c, "s0")):
            registry.counter(
                "fdeta_shard_total", "t", labels=("shard",)
            ).inc(2, shard=shard)
        totals = merge_metrics((a, b, c)).totals()
        assert totals[("fdeta_shard_total", ("s0",))] == 4.0
        assert totals[("fdeta_shard_total", ("s1",))] == 2.0

    def test_gauges_last_write_wins(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.gauge("fdeta_depth", "t").set(3.0)
        b.gauge("fdeta_depth", "t").set(7.0)
        merged = merge_metrics((a, b))
        [family] = [
            f
            for f in merged.snapshot()["families"]
            if f["name"] == "fdeta_depth"
        ]
        assert [s["value"] for s in family["samples"]] == [7.0]

    def test_merge_order_invariant_for_totals(self):
        registries = []
        for n in (5, 11, 2):
            registry = MetricsRegistry()
            registry.counter("fdeta_x_total", "t").inc(n)
            registry.histogram("fdeta_lat_seconds", "t").observe(0.01 * n)
            registries.append(registry)
        forward = merge_metrics(registries).totals()
        backward = merge_metrics(tuple(reversed(registries))).totals()
        assert forward == backward


class TestFleetMetricsMerge:
    def _run(self, base_dir, n_shards, cycles, chaos=None):
        fleet = ElasticFleet(
            CONSUMERS,
            base_dir,
            service_factory,
            detector_factory,
            n_shards=n_shards,
        )
        try:
            for t in range(cycles):
                if chaos is not None:
                    chaos(fleet, t)
                fleet.ingest_cycle(readings(t))
            return fleet.merged_metrics().totals()
        finally:
            fleet.close()

    def test_three_shard_merge_counts_every_reading(self, tmp_path):
        totals = self._run(tmp_path, 3, SLOTS_PER_WEEK)
        accepted = [
            value
            for (name, _), value in totals.items()
            if name == "fdeta_readings_total"
        ]
        assert accepted and sum(accepted) == len(CONSUMERS) * SLOTS_PER_WEEK

    @staticmethod
    def _reading_scoped(totals):
        """Counters proportional to readings/consumers/weeks — the ones
        that must be *identical* between a sharded and unsharded run.
        Per-cycle structural counters (each shard runs its own ingest
        loop) and WAL/fleet plumbing are inherently per-worker."""
        structural = (
            "fdeta_wal_",
            "fdeta_storage_",
            "fdeta_fleet_",
            "fdeta_recovery_",
            "fdeta_ingest_cycle",
            "fdeta_ingest_cycles_total",
            "fdeta_stage_seconds",
            "fdeta_weeks_completed_total",
        )
        return {
            key: value
            for key, value in totals.items()
            if not key[0].startswith(structural)
        }

    def test_sharded_counters_serial_equal_to_unsharded(self, tmp_path):
        """Reading-scoped counter totals across 3 shards == one
        unsharded service over the same roster and cycles."""
        totals = self._run(tmp_path / "fleet", 3, SLOTS_PER_WEEK)
        solo = service_factory(CONSUMERS)
        for t in range(SLOTS_PER_WEEK):
            solo.ingest_cycle(readings(t))
        assert self._reading_scoped(totals) == self._reading_scoped(
            solo.metrics.totals()
        )

    def test_merge_after_restart_is_serial_equal(self, tmp_path):
        """A killed-and-healed shard must not skew merged counters."""

        def chaos(fleet, t):
            if t == 30:
                fleet.kill(fleet.shards[1])

        disturbed = self._run(
            tmp_path / "disturbed", 3, SLOTS_PER_WEEK, chaos=chaos
        )
        undisturbed = self._run(tmp_path / "undisturbed", 3, SLOTS_PER_WEEK)

        def counting(totals):
            return {
                key: value
                for key, value in totals.items()
                if not key[0].startswith(
                    (
                        "fdeta_wal_",
                        "fdeta_storage_",
                        "fdeta_fleet_",
                        "fdeta_recovery_",
                    )
                )
                and "latency" not in key[0]
                # WAL stage windows are WAL plumbing too: the replay
                # that rebuilds a killed shard re-ingests its logged
                # cycles without appending them again.
                and key[1] not in (("wal_append",), ("wal_sync",))
            }

        assert counting(disturbed) == counting(undisturbed)


class TestReportMerge:
    def test_merge_groups_by_week_and_sorts_by_roster(self, tmp_path):
        fleet = ElasticFleet(
            CONSUMERS,
            tmp_path,
            service_factory,
            detector_factory,
            n_shards=3,
        )
        try:
            for t in range(2 * SLOTS_PER_WEEK):
                fleet.ingest_cycle(readings(t))
            merged = merge_weekly_reports(
                fleet.weekly_reports(), roster=sorted(CONSUMERS)
            )
            assert [r.week_index for r in merged] == [0, 1]
            assert len(merged[0].shards) == 3
            assert sorted(merged[0].coverage) == sorted(CONSUMERS)
        finally:
            fleet.close()

    def test_signature_is_placement_invariant(self):
        """Same reports split differently -> identical signatures."""
        solo = service_factory(CONSUMERS)
        for t in range(SLOTS_PER_WEEK):
            solo.ingest_cycle(readings(t))
        [report] = solo.reports
        whole = merged_signature({"one": [report]})
        assert report_signature(report) == whole[0]

