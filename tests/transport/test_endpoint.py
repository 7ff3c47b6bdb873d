"""ShardEndpoint delivery ordering, duplicate absorption, and binding."""

import pytest

from repro.errors import (
    ConfigurationError,
    CorruptEnvelopeError,
    StaleLeaseError,
    TransportError,
)
from repro.transport import Envelope, InProcTransport, ShardEndpoint


def _env(request_id, kind="ingest", shard="s1", seq=0, payload=None, **kw):
    return Envelope.seal(
        request_id=request_id,
        kind=kind,
        shard=shard,
        seq=seq,
        payload=payload,
        **kw,
    )


def _counting_endpoint(shard="s1"):
    endpoint = ShardEndpoint(shard)
    calls = []
    endpoint.bind(
        {
            "ingest": lambda p: calls.append(p) or len(calls),
            "heartbeat": lambda p: "beat",
        }
    )
    return endpoint, calls


class TestDelivery:
    def test_executes_handler_and_caches_reply(self):
        endpoint, calls = _counting_endpoint()
        reply = endpoint.deliver(_env("r1", payload={"cycle": 0}))
        assert reply.value == 1 and not reply.duplicate
        assert calls == [{"cycle": 0}]

    def test_duplicate_request_id_absorbed_not_reexecuted(self):
        endpoint, calls = _counting_endpoint()
        first = endpoint.deliver(_env("r1"))
        again = endpoint.deliver(_env("r1"))
        assert again.duplicate and again.value == first.value
        assert len(calls) == 1
        assert endpoint.duplicates == 1

    def test_wrong_shard_rejected(self):
        endpoint, _ = _counting_endpoint("s1")
        with pytest.raises(TransportError, match="delivered to endpoint"):
            endpoint.deliver(_env("r1", shard="s2"))

    def test_corrupt_envelope_nacked_before_execution(self):
        endpoint, calls = _counting_endpoint()
        with pytest.raises(CorruptEnvelopeError):
            endpoint.deliver(_env("r1", payload={"cycle": 0}).garbled())
        assert calls == []
        # The NACKed id was never cached: a clean retry executes.
        reply = endpoint.deliver(_env("r1", payload={"cycle": 0}))
        assert not reply.duplicate and calls == [{"cycle": 0}]

    def test_unknown_kind_rejected(self):
        endpoint, _ = _counting_endpoint()
        with pytest.raises(TransportError, match="no handler bound"):
            endpoint.deliver(_env("r1", kind="nope"))

    def test_handler_exception_propagates_and_is_not_cached(self):
        endpoint = ShardEndpoint("s1")
        boom = {"armed": True}

        def handler(payload):
            if boom["armed"]:
                boom["armed"] = False
                raise RuntimeError("mid-flight crash")
            return "ok"

        endpoint.bind({"ingest": handler})
        with pytest.raises(RuntimeError):
            endpoint.deliver(_env("r1"))
        # The retry re-executes for real instead of replaying a cached
        # acknowledgement of a failed attempt.
        assert endpoint.deliver(_env("r1")).value == "ok"

    def test_reply_cache_is_bounded_fifo(self):
        endpoint = ShardEndpoint("s1", reply_cache_size=2)
        endpoint.bind({"ingest": lambda p: p})
        for i in range(3):
            endpoint.deliver(_env(f"r{i}", payload=i))
        # r0 was evicted: a replay of it re-executes (not a duplicate).
        assert not endpoint.deliver(_env("r0", payload=0)).duplicate
        assert endpoint.deliver(_env("r2", payload=2)).duplicate

    def test_cache_size_validated(self):
        with pytest.raises(ConfigurationError):
            ShardEndpoint("s1", reply_cache_size=0)


class TestBinding:
    def test_rebind_preserves_lease_and_reply_cache(self):
        endpoint, _ = _counting_endpoint()
        endpoint.acquire_lease("coordA", epoch=1, seq=0, ttl=4)
        endpoint.deliver(_env("r1", holder="coordA"))
        endpoint.bind({"ingest": lambda p: "successor"})
        assert endpoint.lease is not None
        assert endpoint.lease.holder == "coordA"
        # A retried pre-rebind request is still absorbed as a duplicate.
        assert endpoint.deliver(_env("r1", holder="coordA")).duplicate

    def test_lease_checked_before_reply_cache(self):
        """A zombie must not consume a cached ack of a successor write."""
        endpoint, _ = _counting_endpoint()
        endpoint.acquire_lease("coordB", epoch=2, seq=0, ttl=4)
        endpoint.deliver(_env("r1", holder="coordB"))
        with pytest.raises(StaleLeaseError):
            endpoint.deliver(_env("r1", holder="coordA"))

    def test_reads_bypass_the_lease(self):
        endpoint, _ = _counting_endpoint()
        endpoint.acquire_lease("coordB", epoch=2, seq=0, ttl=4)
        reply = endpoint.deliver(
            _env("hb1", kind="heartbeat", holder="coordA")
        )
        assert reply.value == "beat"


class TestTransportRegistry:
    def test_register_endpoint_and_call(self):
        transport = InProcTransport()
        endpoint, _ = _counting_endpoint()
        transport.register(endpoint)
        assert transport.shards == ("s1",)
        assert transport.call(_env("r1")).value == 1

    def test_unknown_endpoint_raises(self):
        transport = InProcTransport()
        with pytest.raises(TransportError, match="no endpoint registered"):
            transport.call(_env("r1"))
        assert transport.endpoint_or_none("s1") is None
