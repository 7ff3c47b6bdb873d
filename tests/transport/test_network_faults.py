"""Network fault grammar, each kind's semantics, and the ledger."""

import pytest

from repro.errors import (
    ConfigurationError,
    CorruptEnvelopeError,
    TransportTimeout,
    UnreachableShardError,
)
from repro.observability.metrics import MetricsRegistry
from repro.transport import (
    NETWORK_FAULT_KINDS,
    Envelope,
    FaultyTransport,
    ShardEndpoint,
    parse_network_faults,
)


def _env(request_id, shard="s1", kind="ingest", payload=None):
    return Envelope.seal(
        request_id=request_id, kind=kind, shard=shard, seq=0, payload=payload
    )


def _transport(spec, metrics=None):
    transport = FaultyTransport(parse_network_faults(spec), metrics)
    endpoint = ShardEndpoint("s1")
    calls = []
    endpoint.bind({"ingest": lambda p: calls.append(p) or len(calls)})
    transport.register(endpoint)
    return transport, calls


class TestGrammar:
    def test_parse_round_trips_spec(self):
        schedule = parse_network_faults(
            "shard-0001:ingest@3=drop, shard-*:*@40=partition"
        )
        assert [e.spec() for e in schedule.events] == [
            "shard-0001:ingest@3=drop",
            "shard-*:*@40=partition",
        ]

    @pytest.mark.parametrize(
        "bad",
        ["", "nonsense", "s1:ingest@x=drop", "s1@3=drop", "s1:ingest@3"],
    )
    def test_malformed_specs_rejected(self, bad):
        with pytest.raises(ConfigurationError):
            parse_network_faults(bad)

    def test_unknown_kind_and_bad_occurrence_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown network fault"):
            parse_network_faults("s1:ingest@3=explode")
        with pytest.raises(ConfigurationError, match="occurrence"):
            parse_network_faults("s1:ingest@0=drop")

    def test_all_documented_kinds_parse(self):
        for kind in NETWORK_FAULT_KINDS:
            parse_network_faults(f"s1:ingest@1={kind}")

    def test_glob_sites_and_wildcard_ops_match(self):
        schedule = parse_network_faults("shard-*:*@2=drop")
        assert schedule.step("shard-0007", "heartbeat") is None
        assert schedule.step("shard-0007", "ingest").kind == "drop"

    def test_counters_shared_across_matching_sites(self):
        schedule = parse_network_faults("s*:ingest@2=drop")
        assert schedule.step("s1", "ingest") is None
        assert schedule.step("s2", "ingest").kind == "drop"


class TestFaultKinds:
    def test_drop_raises_timeout_without_executing(self):
        transport, calls = _transport("s1:ingest@1=drop")
        with pytest.raises(TransportTimeout, match="dropped"):
            transport.call(_env("r1"))
        assert calls == []
        # The retry goes through clean.
        assert transport.call(_env("r1")).value == 1

    def test_delay_executes_but_loses_the_reply(self):
        transport, calls = _transport("s1:ingest@1=delay")
        with pytest.raises(TransportTimeout, match="lost in flight"):
            transport.call(_env("r1"))
        assert len(calls) == 1
        # The retry is absorbed from the reply cache: executed once.
        reply = transport.call(_env("r1"))
        assert reply.duplicate and reply.value == 1 and len(calls) == 1

    def test_dup_delivers_twice_second_absorbed(self):
        transport, calls = _transport("s1:ingest@1=dup")
        reply = transport.call(_env("r1"))
        assert reply.value == 1 and not reply.duplicate
        assert len(calls) == 1
        assert transport.endpoint("s1").duplicates == 1

    def test_reorder_holds_frame_then_flushes_in_order(self):
        transport, calls = _transport("s1:ingest@1=reorder")
        with pytest.raises(TransportTimeout, match="stalled"):
            transport.call(_env("r1", payload="first"))
        assert calls == []
        # The next frame flushes the held one ahead of itself.
        transport.call(_env("r2", payload="second"))
        assert calls == ["first", "second"]
        # The caller's retry of r1 lands as an absorbed duplicate.
        assert transport.call(_env("r1", payload="first")).duplicate

    def test_garble_corrupts_checksum_endpoint_nacks(self):
        transport, calls = _transport("s1:ingest@1=garble")
        with pytest.raises(CorruptEnvelopeError):
            transport.call(_env("r1"))
        assert calls == []
        assert transport.call(_env("r1")).value == 1

    def test_partition_severs_until_heal_event(self):
        transport, calls = _transport("s1:ingest@1=partition,s1:*@3=heal")
        with pytest.raises(UnreachableShardError):
            transport.call(_env("r1"))
        with pytest.raises(UnreachableShardError):
            transport.call(_env("r2"))
        assert not transport.reachable("s1")
        assert transport.severed == ("s1",)
        # Third attempt is the scheduled heal: it goes through.
        assert transport.call(_env("r3")).value == 1
        assert transport.reachable("s1")
        assert calls == [None]

    def test_counters_advance_while_severed(self):
        """Probes against a severed link still advance the schedule —
        that is what makes heal-at-occurrence-N deterministic."""
        transport, _ = _transport("s1:ingest@1=partition,s1:ingest@4=heal")
        for _ in range(3):
            with pytest.raises(UnreachableShardError):
                transport.call(_env("rX"))
        assert transport.call(_env("r4")).value == 1

    def test_manual_partition_and_heal_all(self):
        transport, calls = _transport("s1:ingest@99=drop")
        transport.partition("s1")
        with pytest.raises(UnreachableShardError):
            transport.call(_env("r1"))
        transport.heal_all()
        assert transport.call(_env("r1")).value == 1


class TestLedger:
    def test_every_injection_recorded(self):
        transport, _ = _transport("s1:ingest@1=drop,s1:ingest@2=delay")
        with pytest.raises(TransportTimeout):
            transport.call(_env("r1"))
        with pytest.raises(TransportTimeout):
            transport.call(_env("r1"))
        schedule = transport.schedule
        assert schedule.injected == 2
        assert [e["kind"] for e in schedule.ledger] == ["drop", "delay"]
        assert schedule.exhausted
        payload = schedule.to_dict()
        assert payload["injected"] == 2
        assert all(e["fired"] for e in payload["events"])

    def test_metrics_counter_labelled_by_kind_and_op(self):
        metrics = MetricsRegistry()
        transport, _ = _transport("s1:ingest@1=drop", metrics)
        with pytest.raises(TransportTimeout):
            transport.call(_env("r1"))
        counter = metrics.counter(
            "fdeta_transport_faults_injected_total",
            "Network faults injected by the chaos schedule.",
            labels=("kind", "op"),
        )
        assert counter.value(kind="drop", op="ingest") == 1
