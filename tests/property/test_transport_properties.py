"""Property-based partition chaos for the transport seam.

Hypothesis drives randomized network fault schedules (drop, delay,
dup, reorder, garble, partition, heal) against three layers:

* **endpoint level** — a :class:`ShardClient` feeding sequenced writes
  through arbitrary fault schedules: every *acknowledged* write was
  applied exactly once, in order (no acked write lost, none doubled);
* **lease level** — two coordinators interleaving acquisitions and
  writes: at every moment at most one holder, and every accepted write
  came from the coordinator holding the lease at that moment
  (exactly-one-owner);
* **fleet level** — an :class:`ElasticFleet` under random schedules
  including partitions: after ``heal_all`` + ``drain_backlog`` the
  merged verdicts are bit-identical to an undisturbed baseline and the
  low watermark reaches the frontier (no acknowledged cycle lost).
"""

import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import (
    StaleLeaseError,
    TransportError,
    TransportTimeout,
    UnreachableShardError,
)
from repro.resilience.retry import RetryPolicy
from repro.transport import (
    FaultyTransport,
    ShardClient,
    ShardEndpoint,
    parse_network_faults,
)

sys.path.insert(0, "tests/scaleout")

TRANSIENT_KINDS = ("drop", "delay", "dup", "reorder", "garble")
ALL_KINDS = TRANSIENT_KINDS + ("partition", "heal")


def _unreachable(fleet):
    """Shards the health plane reports severed, in name order."""
    return tuple(
        shard.name
        for shard in fleet.health_report().shards
        if shard.state == "unreachable"
    )


def _schedule(events):
    spec = ",".join(f"s1:ingest@{at}={kind}" for at, kind in events)
    return parse_network_faults(spec)


transient_events = st.lists(
    st.tuples(st.integers(1, 60), st.sampled_from(TRANSIENT_KINDS)),
    min_size=1,
    max_size=8,
    unique_by=lambda e: e[0],
)


class TestEndpointLevel:
    @settings(max_examples=60, deadline=None)
    @given(events=transient_events)
    def test_acked_writes_applied_exactly_once_in_order(self, events):
        transport = FaultyTransport(_schedule(events))
        endpoint = ShardEndpoint("s1")
        applied = []
        endpoint.bind({"ingest": lambda p: applied.append(p) or p})
        transport.register(endpoint)
        client = ShardClient(
            transport, "s1", policy=RetryPolicy(max_attempts=4)
        )
        acked = []
        for seq in range(20):
            try:
                client.call("ingest", seq, seq=seq)
            except TransportTimeout:
                # Exhausted retries: delivery unknown, not acknowledged.
                continue
            acked.append(seq)
        # Every acked write applied at least once, never twice, and the
        # applied stream is strictly increasing (reorder faults flush
        # held frames before the next one passes, preserving order).
        assert set(acked) <= set(applied)
        assert len(applied) == len(set(applied))
        assert applied == sorted(applied)

    @settings(max_examples=40, deadline=None)
    @given(
        events=st.lists(
            st.tuples(st.integers(1, 40), st.sampled_from(ALL_KINDS)),
            min_size=1,
            max_size=8,
            unique_by=lambda e: e[0],
        )
    )
    def test_no_ack_is_ever_a_lie(self, events):
        """Whatever the schedule does, an acknowledged write is applied;
        failures surface only as the typed transport hierarchy."""
        transport = FaultyTransport(_schedule(events))
        endpoint = ShardEndpoint("s1")
        applied = set()
        endpoint.bind({"ingest": lambda p: applied.add(p) or p})
        transport.register(endpoint)
        client = ShardClient(
            transport, "s1", policy=RetryPolicy(max_attempts=3)
        )
        for seq in range(15):
            try:
                reply = client.call("ingest", seq, seq=seq)
            except (TransportTimeout, UnreachableShardError):
                continue
            except TransportError:  # pragma: no cover - defensive
                pytest.fail("unexpected transport error type")
            assert reply.value == seq or reply.duplicate
            assert seq in applied


class TestLeaseLevel:
    @settings(max_examples=60, deadline=None)
    @given(
        actions=st.lists(
            st.tuples(
                st.sampled_from(("A", "B")),
                st.sampled_from(("acquire", "write")),
            ),
            min_size=4,
            max_size=24,
        )
    )
    def test_exactly_one_owner_and_only_the_owner_writes(self, actions):
        endpoint = ShardEndpoint("s1")
        accepted = []
        endpoint.bind({"ingest": lambda p: accepted.append(p) or p})
        epochs = {"A": 0, "B": 0}
        seq = 0
        for coordinator, action in actions:
            seq += 1
            if action == "acquire":
                # Model a takeover: the acquirer presents an epoch one
                # above anything granted so far (a reopened fleet bumps
                # every epoch past the manifest's).
                epochs[coordinator] = (
                    max(epochs.values()) + 1
                    if endpoint.lease is None
                    or endpoint.lease.holder != coordinator
                    else epochs[coordinator]
                )
                try:
                    endpoint.acquire_lease(
                        coordinator, epochs[coordinator], seq, ttl=4
                    )
                except StaleLeaseError:
                    pass
            else:
                from repro.transport import Envelope

                holder_now = (
                    endpoint.lease.holder
                    if endpoint.lease is not None
                    else None
                )
                envelope = Envelope.seal(
                    request_id=f"s1:ingest:{coordinator}:{seq}",
                    kind="ingest",
                    shard="s1",
                    seq=seq,
                    payload=(coordinator, seq),
                    holder=coordinator,
                )
                try:
                    endpoint.deliver(envelope)
                    # Accepted ⇒ the writer held the lease (or no lease
                    # exists at all — an endpoint nobody has leased).
                    assert holder_now in (coordinator, None)
                except StaleLeaseError:
                    assert holder_now is not None
                    assert holder_now != coordinator
            # The invariant itself: at most one holder at any moment.
            holders = {endpoint.lease.holder} if endpoint.lease else set()
            assert len(holders) <= 1


class TestFleetLevel:
    @settings(max_examples=8, deadline=None)
    @given(
        events=st.lists(
            st.tuples(
                st.sampled_from(("shard-0000", "shard-0001", "shard-*")),
                st.integers(1, 120),
                st.sampled_from(ALL_KINDS),
            ),
            min_size=1,
            max_size=6,
            unique_by=lambda e: (e[0], e[1]),
        )
    )
    def test_partition_chaos_heals_to_bit_identical_verdicts(
        self, tmp_path_factory, events
    ):
        from _fixtures import (
            CONSUMERS,
            detector_factory,
            readings,
            service_factory,
        )
        from repro.scaleout.fleet import ElasticFleet
        from repro.timeseries.seasonal import SLOTS_PER_WEEK

        cycles = 2 * SLOTS_PER_WEEK + 3

        base_dir = tmp_path_factory.mktemp("baseline")
        with ElasticFleet(
            CONSUMERS, base_dir, service_factory, detector_factory, n_shards=2
        ) as baseline:
            for t in range(cycles):
                baseline.ingest_cycle(readings(t))
            expected = baseline.merged_signature()

        spec = ",".join(f"{site}:*@{at}={kind}" for site, at, kind in events)
        transport = FaultyTransport(parse_network_faults(spec))
        chaos_dir = tmp_path_factory.mktemp("chaos")
        with ElasticFleet(
            CONSUMERS,
            chaos_dir,
            service_factory,
            detector_factory,
            n_shards=2,
            transport=transport,
        ) as fleet:
            for t in range(cycles):
                fleet.ingest_cycle(readings(t))
            transport.heal_all()
            fleet.drain_backlog()
            # No acknowledged cycle lost: every shard reaches the
            # frontier, and the merged verdicts match the undisturbed
            # baseline bit for bit.
            assert fleet.low_watermark == cycles - 1
            assert _unreachable(fleet) == ()
            assert fleet.merged_signature() == expected
