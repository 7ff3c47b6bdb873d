"""The transport seam: endpoints, the interface, and the in-proc default.

:class:`ShardEndpoint` is the shard-side half of every RPC: it verifies
the envelope checksum, enforces the ownership lease on write kinds,
absorbs duplicate request ids from a bounded reply cache, and only then
invokes the bound handler.  Binding is re-entrant on purpose — a worker
restart or handoff re-wrap rebinds the same endpoint to the successor
monitor, so the endpoint (and with it the lease and the reply cache)
outlives any single worker incarnation.  That persistence is the whole
point: the lease must survive the monitors it fences.

:class:`InProcTransport` is the production default — a dict lookup and
a method call, near-zero overhead, bit-identical behaviour to the
direct calls it replaced.  :class:`~repro.transport.faults.FaultyTransport`
subclasses it to interpose a deterministic fault schedule.

Delivery order inside :meth:`ShardEndpoint.deliver` is load-bearing:

1. **checksum** — a garbled frame is NACKed before anything executes;
2. **lease** (write kinds) — a stale coordinator is refused *before*
   the reply cache is consulted, so a zombie can never mistake a
   cached acknowledgement of its successor's write for its own;
3. **reply cache** — a duplicate request id re-delivers the original
   reply without re-executing;
4. **handler** — exceptions propagate and are never cached, so a retry
   after a failure re-executes for real.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Mapping

from repro.errors import (
    ConfigurationError,
    CorruptEnvelopeError,
    StaleLeaseError,
    TransportError,
)
from repro.transport.envelope import Envelope, Reply
from repro.transport.lease import ShardLease

__all__ = [
    "InProcTransport",
    "LEASE_ACQUIRE",
    "ShardEndpoint",
    "Transport",
    "WRITE_KINDS",
]

#: Envelope kinds that mutate shard state and are therefore lease-fenced.
WRITE_KINDS = frozenset({"ingest", "checkpoint", "extract", "adopt"})

#: The built-in lease-acquisition kind every endpoint handles itself.
LEASE_ACQUIRE = "lease.acquire"

#: Replies remembered per endpoint for duplicate absorption.  Must
#: comfortably exceed the deepest burst of in-flight logical requests
#: (one ingest per shard per cycle plus handoff traffic); 256 gives two
#: orders of magnitude of margin over the fleet's actual concurrency.
DEFAULT_REPLY_CACHE = 256


class ShardEndpoint:
    """The shard-side terminus of the transport for one shard."""

    def __init__(
        self, shard: str, reply_cache_size: int = DEFAULT_REPLY_CACHE
    ) -> None:
        if reply_cache_size < 1:
            raise ConfigurationError(
                f"reply_cache_size must be >= 1, got {reply_cache_size}"
            )
        self.shard = shard
        self.reply_cache_size = int(reply_cache_size)
        self.lease: ShardLease | None = None
        self.delivered = 0
        self.duplicates = 0
        self._handlers: dict[str, Callable[[object], object]] = {}
        self._replies: "OrderedDict[str, object]" = OrderedDict()

    def bind(self, handlers: Mapping[str, Callable[[object], object]]) -> None:
        """(Re)bind the RPC handlers; the endpoint itself persists.

        Called at worker build, restart, and handoff re-wrap.  The
        lease and reply cache deliberately survive a rebind: duplicates
        must absorb across restarts, and ownership must outlive any one
        worker incarnation.
        """
        self._handlers = dict(handlers)

    # -- lease protocol ------------------------------------------------

    def acquire_lease(
        self, holder: str, epoch: int, seq: int, ttl: int
    ) -> ShardLease:
        """Grant/renew the shard lease, or refuse a stale requester."""
        lease = self.lease
        if (
            lease is None
            or lease.holder == holder
            or epoch > lease.epoch
            or lease.expired(seq)
        ):
            if lease is not None and lease.holder == holder:
                epoch = max(epoch, lease.epoch)
            self.lease = ShardLease(
                holder=holder, epoch=epoch, expires_seq=seq + ttl, ttl=ttl
            )
            return self.lease
        raise StaleLeaseError(
            f"shard {self.shard!r} is leased to {lease.holder!r} at epoch "
            f"{lease.epoch} through seq {lease.expires_seq}; requester "
            f"{holder!r} presented epoch {epoch} at seq {seq} and is "
            "refused"
        )

    def _check_write(self, envelope: Envelope) -> None:
        lease = self.lease
        if lease is None:
            # Lease-less operation (no coordinator has acquired this
            # shard yet): the in-process FencedMonitor epoch check
            # still applies.
            return
        if envelope.holder == lease.holder:
            lease.renew(envelope.seq)
            return
        raise StaleLeaseError(
            f"write {envelope.request_id!r} from {envelope.holder!r} "
            f"(epoch {envelope.lease_epoch}) refused: shard "
            f"{self.shard!r} is leased to {lease.holder!r} at epoch "
            f"{lease.epoch}; acquire the lease before writing"
        )

    # -- delivery ------------------------------------------------------

    def deliver(self, envelope: Envelope) -> Reply:
        """Execute one envelope (see the module docstring for ordering)."""
        if envelope.shard != self.shard:
            raise TransportError(
                f"envelope for shard {envelope.shard!r} delivered to "
                f"endpoint {self.shard!r}"
            )
        if not envelope.verify():
            raise CorruptEnvelopeError(
                f"envelope {envelope.request_id!r} failed its payload "
                "checksum on delivery; NACKing for retransmission"
            )
        if envelope.kind in WRITE_KINDS:
            self._check_write(envelope)
        cached = self._replies.get(envelope.request_id, _MISSING)
        if cached is not _MISSING:
            self.duplicates += 1
            return Reply(
                request_id=envelope.request_id, value=cached, duplicate=True
            )
        if envelope.kind == LEASE_ACQUIRE:
            lease = self.acquire_lease(
                envelope.holder,
                envelope.lease_epoch,
                envelope.seq,
                int(envelope.payload),
            )
            value: object = lease.to_dict()
        else:
            try:
                handler = self._handlers[envelope.kind]
            except KeyError:
                raise TransportError(
                    f"shard {self.shard!r} has no handler bound for kind "
                    f"{envelope.kind!r}"
                ) from None
            value = handler(envelope.payload)
        self.delivered += 1
        self._replies[envelope.request_id] = value
        while len(self._replies) > self.reply_cache_size:
            self._replies.popitem(last=False)
        return Reply(request_id=envelope.request_id, value=value)


_MISSING = object()


class Transport:
    """The coordinator-side interface every transport implements."""

    name = "abstract"

    def __init__(self) -> None:
        self._endpoints: dict[str, ShardEndpoint] = {}

    def register(self, endpoint: ShardEndpoint) -> ShardEndpoint:
        """Attach a shard endpoint; re-registering replaces it."""
        self._endpoints[endpoint.shard] = endpoint
        return endpoint

    def endpoint(self, shard: str) -> ShardEndpoint:
        try:
            return self._endpoints[shard]
        except KeyError:
            raise TransportError(
                f"no endpoint registered for shard {shard!r}"
            ) from None

    def endpoint_or_none(self, shard: str) -> ShardEndpoint | None:
        return self._endpoints.get(shard)

    @property
    def shards(self) -> tuple[str, ...]:
        return tuple(sorted(self._endpoints))

    def call(self, envelope: Envelope) -> Reply:
        raise NotImplementedError


class InProcTransport(Transport):
    """The zero-fault default: route straight to the endpoint.

    One dict lookup and one method call on top of what the direct-call
    fleet paid — the disarmed-seam cost benchmarked (and gated < 5%)
    in ``benchmarks/test_transport.py``.
    """

    name = "inproc"

    def call(self, envelope: Envelope) -> Reply:
        return self.endpoint(envelope.shard).deliver(envelope)
