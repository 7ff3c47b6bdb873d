"""Deterministic partition chaos: degrade, buffer, heal, fence zombies.

The storage chaos suites prove the fleet survives a lying disk; these
prove it survives a lying *network*: a severed shard degrades instead
of crashing the fleet, its cycles buffer for replay, reconnection heals
it back to bit-identical merged verdicts, and a coordinator that lost
ownership is refused at the wire.
"""

import pytest
from _fixtures import (
    CONSUMERS,
    WEEKS,
    detector_factory,
    readings,
    service_factory,
)

from repro.errors import StaleLeaseError, SupervisorError
from repro.observability.metrics import MetricsRegistry
from repro.scaleout.fleet import ElasticFleet
from repro.timeseries.seasonal import SLOTS_PER_WEEK
from repro.transport import (
    FaultyTransport,
    InProcTransport,
    parse_network_faults,
)

T = WEEKS * SLOTS_PER_WEEK


def _unreachable(fleet):
    """Shards the health plane reports severed, in name order."""
    return tuple(
        shard.name
        for shard in fleet.health_report().shards
        if shard.state == "unreachable"
    )


def _fleet(base_dir, transport=None, **kw):
    if transport is not None:
        kw["transport"] = transport
    return ElasticFleet(
        CONSUMERS,
        base_dir,
        service_factory,
        detector_factory,
        n_shards=2,
        **kw,
    )


def _baseline_signature(tmp_path_factory):
    with _fleet(tmp_path_factory.mktemp("baseline")) as fleet:
        for t in range(T):
            fleet.ingest_cycle(readings(t))
        return fleet.merged_signature()


@pytest.fixture(scope="module")
def baseline(tmp_path_factory):
    return _baseline_signature(tmp_path_factory)


class TestPartitionLifecycle:
    def test_partition_degrades_buffers_and_heals_bit_identical(
        self, tmp_path, baseline
    ):
        schedule = parse_network_faults(
            "shard-0000:ingest@30=partition"
        )
        transport = FaultyTransport(schedule)
        metrics = MetricsRegistry()
        with _fleet(tmp_path, transport, metrics=metrics) as fleet:
            for t in range(60):
                fleet.ingest_cycle(readings(t))
            # Mid-partition: the severed shard is degraded, not dead —
            # its cycles buffer while the healthy shard ingests at the
            # frontier.
            assert _unreachable(fleet) == ("shard-0000",)
            worker = fleet._workers["shard-0000"]
            assert worker.monitor is not None and not worker.hung
            assert len(worker.pending) > 0
            assert fleet.watermarks.high_marks["shard-0001"] == 59

            report = fleet.health_report()
            shard = report.shard("shard-0000")
            assert shard.state == "unreachable" and shard.unreachable
            assert not shard.ready
            assert any("partition" in r for r in shard.reasons)
            assert any("buffered for replay" in r for r in shard.reasons)
            assert report.states["unreachable"] == 1
            gauge = metrics.gauge(
                "fdeta_fleet_shard_unreachable",
                "1 while the shard's transport link is severed.",
                labels=("shard",),
            )
            assert gauge.value(shard="shard-0000") == 1.0

            # Heal the link; the backlog replays and the fleet converges.
            transport.heal_all()
            drained = fleet.drain_backlog()
            assert drained > 0  # the partition buffer replayed
            assert _unreachable(fleet) == ()
            for t in range(60, T):
                fleet.ingest_cycle(readings(t))
            assert fleet.low_watermark == T - 1
            assert fleet.merged_signature() == baseline

    def test_scheduled_heal_reconnects_without_operator(self, tmp_path, baseline):
        schedule = parse_network_faults(
            "shard-0001:*@25=partition,shard-0001:*@40=heal"
        )
        with _fleet(tmp_path, FaultyTransport(schedule)) as fleet:
            for t in range(T):
                fleet.ingest_cycle(readings(t))
            # The heal fired off this coordinator's own probes: no
            # manual heal_all() was ever needed.
            assert schedule.exhausted
            assert _unreachable(fleet) == ()
            fleet.drain_backlog()
            assert fleet.low_watermark == T - 1
            assert fleet.merged_signature() == baseline

    def test_transient_faults_invisible_in_verdicts(self, tmp_path, baseline):
        schedule = parse_network_faults(
            "shard-*:ingest@7=drop,shard-*:ingest@19=delay,"
            "shard-*:ingest@31=dup,shard-*:ingest@43=reorder,"
            "shard-*:ingest@57=garble"
        )
        transport = FaultyTransport(schedule)
        with _fleet(tmp_path, transport) as fleet:
            for t in range(T):
                fleet.ingest_cycle(readings(t))
            assert schedule.exhausted
            assert fleet.low_watermark == T - 1
            assert fleet.merged_signature() == baseline
            # The injection ledger is complete evidence for the run.
            assert [e["kind"] for e in schedule.ledger] == [
                "drop", "delay", "dup", "reorder", "garble",
            ]

    def test_rebalance_refused_across_partition(self, tmp_path):
        transport = FaultyTransport(
            parse_network_faults("shard-0000:ingest@10=partition")
        )
        with _fleet(tmp_path, transport) as fleet:
            for t in range(12):
                fleet.ingest_cycle(readings(t))
            assert _unreachable(fleet) == ("shard-0000",)
            with pytest.raises(SupervisorError, match="partition"):
                fleet.add_shard()
            # Heal, drain, and the same handoff goes through.
            transport.heal_all()
            fleet.drain_backlog()
            name = fleet.add_shard()
            assert name in fleet.shards


class TestLeaseFencing:
    def test_zombie_coordinator_refused_at_the_wire(self, tmp_path):
        transport = InProcTransport()
        old = _fleet(tmp_path, transport)
        try:
            for t in range(10):
                old.ingest_cycle(readings(t))
            # A new incarnation reopens the same durable state over the
            # same wire; its manifest epochs exceed the zombie's.
            new = ElasticFleet(
                (),
                tmp_path,
                service_factory,
                detector_factory,
                transport=transport,
            )
            try:
                with pytest.raises(StaleLeaseError):
                    old.ingest_cycle(readings(10))
                for t in range(new.cycle, 15):
                    new.ingest_cycle(readings(t))
                assert new.low_watermark == 14
                for name in new.shards:
                    lease = new.shard_lease(name)
                    assert lease is not None
                    assert lease.holder == new.holder
            finally:
                new.close()
        finally:
            old.close()

    def test_leases_renewed_by_writes_never_expire_under_load(self, tmp_path):
        with _fleet(tmp_path, lease_ttl_cycles=2) as fleet:
            for t in range(20):
                fleet.ingest_cycle(readings(t))
            for name in fleet.shards:
                lease = fleet.shard_lease(name)
                assert lease is not None
                assert not lease.expired(fleet.cycle)

    def test_health_reports_leased_out_shard(self, tmp_path):
        with _fleet(tmp_path) as fleet:
            for t in range(5):
                fleet.ingest_cycle(readings(t))
            # Another coordinator takes one shard over the same wire.
            endpoint = fleet.transport.endpoint("shard-0000")
            endpoint.acquire_lease(
                "usurper", epoch=fleet.epoch("shard-0000") + 10, seq=5, ttl=8
            )
            report = fleet.health_report()
            shard = report.shard("shard-0000")
            assert shard.lease_holder == "usurper"
            assert any("leased out" in r for r in shard.reasons)

    def test_lease_ttl_validated(self, tmp_path):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="lease_ttl_cycles"):
            _fleet(tmp_path, lease_ttl_cycles=0)


class TestRestartsUnderTransport:
    def test_crash_restart_still_heals_through_the_seam(self, tmp_path, baseline):
        with _fleet(tmp_path) as fleet:
            for t in range(40):
                fleet.ingest_cycle(readings(t))
            fleet.kill("shard-0000")
            for t in range(40, T):
                fleet.ingest_cycle(readings(t))
            assert fleet.low_watermark == T - 1
            assert fleet.merged_signature() == baseline
            # The restart re-acquired the lease at the bumped epoch.
            lease = fleet.shard_lease("shard-0000")
            assert lease is not None and lease.holder == fleet.holder
            assert lease.epoch == fleet.epoch("shard-0000")
