"""Deterministic network-fault injection for the control plane.

The same seam-and-schedule discipline :mod:`repro.storage.faults`
applies to disks, applied to the coordinator↔shard network.  A fault is
a *scheduled lie* the network tells on an exact (shard glob, envelope
kind, occurrence count), so chaos suites replay bit-identically and CI
failures reproduce locally from the spec string alone.

The parseable spec grammar (``--network-faults``) is storage's, parsed
by the same :class:`~repro.storage.faults.FaultSchedule`
(:func:`parse_network_faults` passes the network's kinds)::

    SPEC   := EVENT ("," EVENT)*
    EVENT  := SHARD ":" KIND_OP "@" N "=" FAULT
    SHARD  := fnmatch glob over shard names ("shard-0001", "shard-*")
    KIND_OP:= ingest | heartbeat | checkpoint | extract | adopt |
              lease.acquire | *
    N      := 1-based occurrence of a matching delivery *attempt*
    FAULT  := drop | delay | dup | reorder | garble | partition | heal

e.g. ``shard-0001:ingest@3=drop,shard-*:*@40=partition``.

Fault semantics (each models one way a real network lies):

* ``drop`` — the request never arrives; the caller sees
  :class:`~repro.errors.TransportTimeout` and its retry *re-executes*;
* ``delay`` — the request executes but the reply is lost; the retry is
  absorbed by the endpoint's reply cache and returns the original
  result (the at-least-once + idempotence proof);
* ``dup`` — the network delivers the frame twice; the endpoint absorbs
  the second copy as a duplicate;
* ``reorder`` — the frame is held in a stalled queue (caller times
  out) and flushed, in order, before the next frame to that shard gets
  through — the retry then lands as an absorbed duplicate;
* ``garble`` — the frame arrives with a corrupted checksum; the
  endpoint NACKs (:class:`~repro.errors.CorruptEnvelopeError`) before
  executing anything and the retry carries a clean copy;
* ``partition`` — the link to the shard is severed: this and every
  following attempt raises
  :class:`~repro.errors.UnreachableShardError` until a ``heal``;
* ``heal`` — the link is restored (held frames flush first).

Occurrence counters advance on **every** delivery attempt, including
attempts that fail fast against a severed link — that is what lets a
scheduled ``heal`` fire off the coordinator's probe heartbeats, keeping
partition windows fully deterministic.  Every injection is recorded in
the schedule's **ledger** (uploaded as a CI artifact by the
``network-chaos`` job).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import TransportTimeout, UnreachableShardError
from repro.storage.faults import FaultEvent, FaultSchedule
from repro.transport.base import InProcTransport
from repro.transport.envelope import Envelope, Reply

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.observability.metrics import MetricsRegistry

__all__ = [
    "NETWORK_FAULT_KINDS",
    "FaultyTransport",
    "parse_network_faults",
]

NETWORK_FAULT_KINDS = (
    "drop",
    "delay",
    "dup",
    "reorder",
    "garble",
    "partition",
    "heal",
)


def parse_network_faults(spec: str) -> FaultSchedule:
    """Build a network :class:`~repro.storage.faults.FaultSchedule`
    from the ``shard:op@N=kind,...`` grammar (any op name matches an
    envelope kind)."""
    return FaultSchedule.parse(
        spec,
        kinds=NETWORK_FAULT_KINDS,
        ops=None,
        name="network fault",
        grammar="shard:op@N=kind",
    )


class FaultyTransport(InProcTransport):
    """An :class:`InProcTransport` that injects the schedule's faults."""

    name = "faulty"

    def __init__(
        self,
        schedule: FaultSchedule,
        metrics: "MetricsRegistry | None" = None,
    ) -> None:
        super().__init__()
        self.schedule = schedule
        self.metrics = metrics
        self._severed: set[str] = set()
        self._held: dict[str, list[Envelope]] = {}

    # -- link control (also driveable directly from chaos tests) -------

    def partition(self, shard: str) -> None:
        """Sever the link to ``shard``: calls fail fast until healed."""
        self._severed.add(shard)

    def heal(self, shard: str) -> None:
        """Restore the link to ``shard``; stalled frames flush first."""
        self._severed.discard(shard)
        self._flush_held(shard)

    def heal_all(self) -> None:
        """Restore every severed link and flush every stalled queue."""
        self._severed.clear()
        for shard in sorted(self._held):
            self._flush_held(shard)

    def reachable(self, shard: str) -> bool:
        return shard not in self._severed

    @property
    def severed(self) -> tuple[str, ...]:
        return tuple(sorted(self._severed))

    # -- delivery ------------------------------------------------------

    def _record(self, event: FaultEvent, op: str) -> None:
        if self.metrics is not None:
            self.metrics.counter(
                "fdeta_transport_faults_injected_total",
                "Network faults injected by the chaos schedule.",
                labels=("kind", "op"),
            ).inc(kind=event.kind, op=op)

    def _flush_held(self, shard: str) -> None:
        """Deliver a stalled queue in order; nobody awaits these replies.

        A handler failure during a flush has no caller to surface to —
        the reply was already timed out — so it is swallowed here; the
        request is then *not* cached and the caller's retry re-executes
        it for real.
        """
        for held in self._held.pop(shard, ()):  # noqa: B020 - local pop
            try:
                super().call(held)
            except Exception:  # noqa: BLE001 - flush is fire-and-forget
                pass

    def call(self, envelope: Envelope) -> Reply:
        shard, kind = envelope.shard, envelope.kind
        # Counters advance on *every* attempt — including attempts at a
        # severed link — so heal events fire deterministically off the
        # coordinator's probe heartbeats.
        event = self.schedule.step(shard, kind)
        if event is not None:
            self._record(event, kind)
            if event.kind == "heal":
                self.heal(shard)
            elif event.kind == "partition":
                self._severed.add(shard)
        if shard in self._severed:
            raise UnreachableShardError(
                f"shard {shard!r} is unreachable: the link is severed "
                "(network partition)"
            )
        self._flush_held(shard)
        if event is None or event.kind == "heal":
            return super().call(envelope)
        if event.kind == "drop":
            raise TransportTimeout(
                f"request {envelope.request_id!r} dropped before delivery"
            )
        if event.kind == "delay":
            # The work happens; only the acknowledgement is lost.  The
            # retry will be absorbed by the endpoint's reply cache.
            super().call(envelope)
            raise TransportTimeout(
                f"reply to {envelope.request_id!r} lost in flight"
            )
        if event.kind == "dup":
            first = super().call(envelope)
            super().call(envelope)
            return first
        if event.kind == "reorder":
            self._held.setdefault(shard, []).append(envelope)
            raise TransportTimeout(
                f"request {envelope.request_id!r} held in a stalled queue"
            )
        # garble: deliver a corrupted frame; the endpoint NACKs it.
        return super().call(envelope.garbled())
