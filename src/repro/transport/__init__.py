"""``repro.transport`` — the message-passing seam under the fleet.

Everything the coordinator says to a shard — ingest dispatch,
heartbeats, handoff checkpoints/extracts/adopts, health pulls — travels
through a :class:`Transport` as an idempotent, request-id-tagged
:class:`Envelope`.  Production runs use :class:`InProcTransport` (a
dict lookup away from the direct calls it replaced);
:class:`FaultyTransport` interposes a deterministic fault schedule
(:func:`parse_network_faults`) so partition-tolerance claims are proved
by replayable chaos, not asserted.

See the module docstrings for the load-bearing details:
:mod:`~repro.transport.envelope` (request identity and duplicate
absorption), :mod:`~repro.transport.lease` (exactly-one-owner),
:mod:`~repro.transport.base` (delivery ordering),
:mod:`~repro.transport.faults` (the fault grammar), and
:mod:`~repro.transport.client` (retry discipline).
"""

from repro.transport.base import (
    LEASE_ACQUIRE,
    WRITE_KINDS,
    InProcTransport,
    ShardEndpoint,
    Transport,
)
from repro.transport.client import ShardClient
from repro.transport.envelope import Envelope, Reply, payload_fingerprint
from repro.transport.faults import (
    NETWORK_FAULT_KINDS,
    FaultyTransport,
    parse_network_faults,
)
from repro.transport.lease import ShardLease

__all__ = [
    "Envelope",
    "FaultyTransport",
    "InProcTransport",
    "LEASE_ACQUIRE",
    "NETWORK_FAULT_KINDS",
    "Reply",
    "ShardClient",
    "ShardEndpoint",
    "ShardLease",
    "Transport",
    "WRITE_KINDS",
    "parse_network_faults",
    "payload_fingerprint",
]
