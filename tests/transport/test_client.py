"""ShardClient retry discipline and the shared RetryPolicy plumbing."""

import pytest

from repro.errors import (
    ConfigurationError,
    StaleLeaseError,
    TransportTimeout,
    UnreachableShardError,
)
from repro.observability.metrics import MetricsRegistry
from repro.resilience.retry import RetryPolicy, retry_call
from repro.transport import (
    FaultyTransport,
    InProcTransport,
    ShardClient,
    ShardEndpoint,
    parse_network_faults,
)


def _fixture(spec=None, metrics=None, policy=None):
    if spec is None:
        transport = InProcTransport()
    else:
        transport = FaultyTransport(parse_network_faults(spec))
    endpoint = ShardEndpoint("s1")
    calls = []
    endpoint.bind({"ingest": lambda p: calls.append(p) or len(calls)})
    transport.register(endpoint)
    client = ShardClient(
        transport, "s1", holder="coord", policy=policy, metrics=metrics
    )
    return client, calls


class TestRetryPolicy:
    def test_jitter_validated(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(jitter=1.0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(jitter=-0.1)

    def test_backoff_without_jitter_equals_attempt_cost(self):
        policy = RetryPolicy(backoff_base=2.0)
        assert policy.backoff(3) == policy.attempt_cost(3)

    def test_jittered_backoff_deterministic_and_bounded(self):
        policy = RetryPolicy(backoff_base=2.0, jitter=0.25)
        base = policy.attempt_cost(3)
        a = policy.backoff(3, key="s1:ingest")
        assert a == policy.backoff(3, key="s1:ingest")
        assert base * 0.75 <= a <= base * 1.25
        # Different keys decorrelate (the thundering-herd defence).
        assert a != policy.backoff(3, key="s2:ingest")

    def test_retry_call_bounds_attempts(self):
        attempts = []

        def operation():
            attempts.append(1)
            raise TransportTimeout("always")

        with pytest.raises(TransportTimeout):
            retry_call(
                operation,
                policy=RetryPolicy(max_attempts=3),
                retryable=TransportTimeout,
            )
        assert len(attempts) == 3

    def test_retry_call_sleeps_backoff_per_attempt(self):
        slept = []
        calls = {"n": 0}

        def operation():
            calls["n"] += 1
            if calls["n"] < 3:
                raise TransportTimeout("flaky")
            return "ok"

        policy = RetryPolicy(max_attempts=4, backoff_base=2.0)
        out = retry_call(
            operation,
            policy=policy,
            retryable=TransportTimeout,
            label="op",
            sleep=slept.append,
        )
        assert out == "ok"
        assert slept == [policy.backoff(1, key="op"), policy.backoff(2, key="op")]

    def test_non_retryable_propagates_immediately(self):
        def operation():
            raise ValueError("not transient")

        with pytest.raises(ValueError):
            retry_call(
                operation,
                policy=RetryPolicy(max_attempts=5),
                retryable=TransportTimeout,
            )


class TestShardClient:
    def test_default_request_id_is_shard_kind_seq(self):
        client, _ = _fixture()
        reply = client.call("ingest", {"cycle": 7}, seq=7)
        assert reply.request_id == "s1:ingest:7"

    def test_timeouts_retried_transparently(self):
        client, calls = _fixture("s1:ingest@1=drop,s1:ingest@3=garble")
        assert client.call("ingest", "a", seq=0).value == 1
        assert client.call("ingest", "b", seq=1).value == 2
        assert calls == ["a", "b"]

    def test_delay_retry_absorbed_once(self):
        metrics = MetricsRegistry()
        client, calls = _fixture("s1:ingest@1=delay", metrics=metrics)
        reply = client.call("ingest", "a", seq=0)
        assert reply.duplicate and calls == ["a"]
        absorbed = metrics.counter(
            "fdeta_transport_duplicates_absorbed_total",
            "Retries answered from the endpoint reply cache.",
            labels=("kind",),
        )
        assert absorbed.value(kind="ingest") == 1

    def test_retries_exhausted_raises_last_timeout(self):
        client, calls = _fixture(
            "s1:ingest@1=drop,s1:ingest@2=drop,s1:ingest@3=drop",
            policy=RetryPolicy(max_attempts=3),
        )
        with pytest.raises(TransportTimeout):
            client.call("ingest", "a", seq=0)
        assert calls == []

    def test_retries_exhausted_on_garble_raise_timeout(self):
        """Callers handle one exhausted-retry type: a garbled last
        attempt surfaces as a timeout, not a CorruptEnvelopeError."""
        client, calls = _fixture(
            "s1:ingest@1=drop,s1:ingest@2=drop,s1:ingest@3=garble",
            policy=RetryPolicy(max_attempts=3),
        )
        with pytest.raises(TransportTimeout, match="3 attempt"):
            client.call("ingest", "a", seq=0)
        assert calls == []

    def test_unreachable_not_retried(self):
        metrics = MetricsRegistry()
        client, calls = _fixture("s1:*@1=partition", metrics=metrics)
        with pytest.raises(UnreachableShardError):
            client.call("ingest", "a", seq=0)
        # One schedule step consumed: the client made exactly one attempt.
        assert client.transport.schedule.events[0].seen == 1
        unreachable = metrics.counter(
            "fdeta_transport_unreachable_total",
            "Calls that found the shard's link severed.",
            labels=("shard",),
        )
        assert unreachable.value(shard="s1") == 1

    def test_stale_lease_not_retried(self):
        client, _ = _fixture()
        endpoint = client.transport.endpoint("s1")
        endpoint.acquire_lease("other", epoch=9, seq=0, ttl=8)
        with pytest.raises(StaleLeaseError):
            client.call("ingest", "a", seq=0)

    def test_acquire_lease_returns_granted_lease(self):
        client, _ = _fixture()
        lease = client.acquire_lease(epoch=2, seq=3, ttl=5)
        assert lease.holder == "coord"
        assert lease.epoch == 2 and lease.expires_seq == 8

    def test_request_counters(self):
        metrics = MetricsRegistry()
        client, _ = _fixture("s1:ingest@1=drop", metrics=metrics)
        client.call("ingest", "a", seq=0)
        requests = metrics.counter(
            "fdeta_transport_requests_total",
            "Logical transport requests issued by the coordinator.",
            labels=("kind",),
        )
        retries = metrics.counter(
            "fdeta_transport_retries_total",
            "Transport requests retried after timeout or corruption.",
            labels=("kind",),
        )
        assert requests.value(kind="ingest") == 1
        assert retries.value(kind="ingest") == 1
