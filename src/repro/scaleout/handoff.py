"""Snapshot+WAL shard handoff: ownership epochs and the fleet manifest.

Moving consumers between shards must never replay full history and must
never let two workers both believe they own a shard.  The protocol (run
by :class:`~repro.scaleout.fleet.ElasticFleet`) is:

1. **quiesce** — heal every worker and drain every per-shard queue so
   the whole fleet sits at the same cycle;
2. **snapshot** — fsync every WAL and checkpoint every shard at the
   quiesced cycle, so each shard's durable state is self-contained;
3. **commit** — bump the ownership epoch of every shard the handoff
   touches and atomically write the fleet manifest with the *new*
   topology plus a ``pending`` handoff record.  The manifest write is
   the commit point: a crash before it rolls the handoff back (nothing
   moved yet), a crash after it rolls forward (recovery re-applies the
   record idempotently);
4. **install** — extract each mover's state packet from its source
   service and adopt it on the destination, then checkpoint
   destinations before sources (if a crash interleaves, the mover
   exists on both checkpoints and recovery resolves in favour of the
   destination);
5. **finalize** — clear the pending record.

Ownership epochs are the fencing token: every live worker is wrapped in
a :class:`FencedMonitor` pinned to the epoch it was built under, and the
fleet's fence map holds each shard's *current* epoch.  Handoffs and
restarts bump the fence, so a stale wrapper — a worker the fleet
already replaced, or a pre-handoff owner — raises
:class:`~repro.errors.StaleWriterError` instead of forking the shard's
history.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, MutableMapping

from repro.errors import HandoffError, StaleWriterError
from repro.storage.io import atomic_write_bytes

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.core.online import MonitoringReport, TheftMonitoringService
    from repro.durability.recovery import DurableTheftMonitor
    from repro.grid.snapshot import DemandSnapshot
    from repro.loadcontrol.deadline import Deadline
    from repro.observability.events import EventLogger

__all__ = [
    "HANDOFF_PHASES",
    "FencedMonitor",
    "HandoffRecord",
    "read_manifest",
    "write_manifest",
]

#: Protocol phases in order; chaos hooks key off these names.
HANDOFF_PHASES = ("quiesce", "snapshot", "commit", "install", "finalize")

_MANIFEST_VERSION = 1


@dataclass(frozen=True)
class HandoffRecord:
    """The pending-handoff record committed in the fleet manifest.

    ``moves`` lists ``(consumer_id, source_shard, destination_shard)``;
    ``added`` names the shards entering the fleet; ``cycle`` is the
    quiesced cycle every shard sat at when the record was committed.
    ``trace`` optionally
    carries the originating handoff span's serialized
    :class:`~repro.observability.tracing.TraceContext`, so a crash
    roll-forward in a *new process* still stitches into the trace of
    the handoff it completes.
    """

    moves: tuple[tuple[str, str, str], ...]
    added: tuple[str, ...]
    cycle: int
    trace: tuple[tuple[str, str], ...] | None = None

    def to_json(self) -> dict:
        payload = {
            "moves": [list(move) for move in self.moves],
            "added": list(self.added),
            "cycle": self.cycle,
        }
        if self.trace is not None:
            payload["trace"] = {k: v for k, v in self.trace}
        return payload

    @classmethod
    def from_json(cls, payload: Mapping) -> "HandoffRecord":
        trace = payload.get("trace")
        return cls(
            moves=tuple(
                (str(c), str(s), str(d)) for c, s, d in payload["moves"]
            ),
            added=tuple(str(name) for name in payload["added"]),
            cycle=int(payload["cycle"]),
            trace=(
                tuple(sorted((str(k), str(v)) for k, v in trace.items()))
                if isinstance(trace, Mapping)
                else None
            ),
        )

    def trace_context(self):
        """The originating span's context, or ``None``."""
        if self.trace is None:
            return None
        from repro.observability.tracing import TraceContext

        return TraceContext.from_dict(dict(self.trace))


def write_manifest(path: str | os.PathLike, state: Mapping) -> None:
    """Atomically persist the fleet manifest (topology + epochs).

    Written tmp-then-rename with fsyncs of both the file and its parent
    directory (through the pluggable :mod:`repro.storage` layer), so a
    crash leaves either the old manifest or the new one — never a torn
    file.  The rename is the handoff protocol's commit point.

    **Double-write protection**: before replacing, the last manifest —
    if it parses — is preserved at ``<path>.prev`` so that even a
    storage layer that violates the atomic-rename contract (torn
    rename, at-rest rot) leaves a good copy to roll back to.  A current
    file that does *not* parse is never promoted: garbage must not
    overwrite the last good generation.
    """
    path = os.fspath(path)
    payload = {"version": _MANIFEST_VERSION, **state}
    current = _read_manifest_bytes(path)
    if current is not None:
        atomic_write_bytes(f"{path}.prev", current, site="manifest.prev")
    rendered = json.dumps(payload, indent=2, sort_keys=True)
    atomic_write_bytes(
        path, (rendered + "\n").encode("utf-8"), site="manifest"
    )


def _read_manifest_bytes(path: str) -> bytes | None:
    """The current manifest's bytes, only if they parse as JSON."""
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError:
        return None
    try:
        json.loads(data.decode("utf-8"))
    except (ValueError, UnicodeDecodeError):
        return None
    return data


def read_manifest(
    path: str | os.PathLike, events: "EventLogger | None" = None
) -> dict | None:
    """Load the fleet manifest, or ``None`` when none exists.

    A torn/corrupt manifest **rolls back** to the ``<path>.prev``
    generation preserved by :func:`write_manifest` (announced on
    ``events`` when a logger is given); only when no valid previous
    generation exists does corruption raise
    :class:`~repro.errors.HandoffError`.
    """
    path = os.fspath(path)
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as handle:
        try:
            payload = json.load(handle)
        except json.JSONDecodeError as exc:
            previous = _load_previous_manifest(path)
            if previous is not None:
                if events is not None:
                    events.warning(
                        "manifest_rollback",
                        path=path,
                        reason=str(exc),
                        rolled_back_to=f"{path}.prev",
                    )
                return previous
            raise HandoffError(
                f"fleet manifest {path!r} is corrupt: {exc}; the atomic "
                "rename contract was violated and no previous generation "
                "survives to roll back to"
            ) from exc
    version = payload.get("version")
    if version != _MANIFEST_VERSION:
        raise HandoffError(
            f"fleet manifest {path!r} has unsupported version {version!r}"
        )
    return payload


def _load_previous_manifest(path: str) -> dict | None:
    """The ``.prev`` generation, when it exists, parses, and versions."""
    try:
        with open(f"{path}.prev", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, json.JSONDecodeError):
        return None
    if (
        not isinstance(payload, dict)
        or payload.get("version") != _MANIFEST_VERSION
    ):
        return None
    return payload


class FencedMonitor:
    """A shard worker pinned to the ownership epoch it was built under.

    Wraps a :class:`~repro.durability.recovery.DurableTheftMonitor`.
    Every write-path call first checks the live fence map: if the
    shard's current epoch has moved past this wrapper's, the wrapper is
    a *stale writer* — a superseded incarnation that must not touch the
    shard's WAL — and raises :class:`~repro.errors.StaleWriterError`.
    """

    def __init__(
        self,
        inner: "DurableTheftMonitor",
        shard: str,
        epoch: int,
        fence: MutableMapping[str, int],
    ) -> None:
        self.inner = inner
        self.shard = shard
        self.epoch = int(epoch)
        self._fence = fence

    @property
    def service(self) -> "TheftMonitoringService":
        return self.inner.service

    @property
    def redelivered_cycles(self) -> int:
        return self.inner.redelivered_cycles

    @property
    def read_only(self) -> bool:
        """Whether the inner monitor is in storage-degraded mode."""
        return self.inner.read_only

    def _check_fence(self) -> None:
        current = self._fence.get(self.shard)
        if current != self.epoch:
            raise StaleWriterError(
                f"worker for shard {self.shard!r} holds epoch "
                f"{self.epoch} but ownership has moved to epoch "
                f"{current}; refusing to write"
            )

    def ingest_cycle(
        self,
        reported: Mapping,
        snapshot: "DemandSnapshot | None" = None,
        cycle_index: int | None = None,
        deadline: "Deadline | None" = None,
    ) -> "MonitoringReport | None":
        self._check_fence()
        return self.inner.ingest_cycle(
            reported, snapshot, cycle_index=cycle_index, deadline=deadline
        )

    def checkpoint_now(self) -> None:
        """Checkpoint the service at the current cycle (WAL synced first).

        The checkpoint of every handoff phase.  Releases and adoptions
        become durable only through a checkpoint, never through the WAL,
        so the post-move state lands in *both* generations: a recovery
        that falls back to ``.prev`` must not resurrect the pre-move
        roster.  After this the shard's durable state is self-contained
        up to the quiesced cycle and the WAL has been compacted to it.
        """
        self._check_fence()
        inner = self.inner
        if inner.checkpoint_path is None:
            raise HandoffError(
                f"shard {self.shard!r} has no checkpoint path; snapshot "
                "handoff requires checkpointing workers"
            )
        inner.checkpoint()
        inner.checkpoint()

    def close(self) -> None:
        self.inner.close()
