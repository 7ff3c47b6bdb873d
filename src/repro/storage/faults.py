"""Deterministic storage-fault injection: schedules, the faulty IO, a ledger.

A fault here is a *scheduled lie* the filesystem tells: the Nth write
at a site raises ``ENOSPC``, an fsync claims durability it never
provided, a rename lands torn, a byte rots at rest.  Schedules are
fully deterministic — a fault fires on an exact (site glob, operation,
occurrence count) — so chaos suites replay bit-identically and CI
failures reproduce locally from the spec string alone.

The parseable spec grammar (``--storage-faults``)::

    SPEC   := EVENT ("," EVENT)*
    EVENT  := SITE ":" OP "@" N "=" KIND
    SITE   := fnmatch glob over site names ("wal.append", "checkpoint",
              "manifest", "export.*", "bench.record", ...)
    OP     := open | write | fsync | replace | fsync_dir | *
    N      := 1-based occurrence of the matching operation
    KIND   := enospc | eio | torn | lying_fsync | bitrot

e.g. ``wal.append:write@3=torn,checkpoint:replace@1=bitrot``.

Every injection is recorded in the schedule's **ledger** so a chaos run
can prove which faults actually fired (and CI can upload the evidence
as an artifact).  :class:`FaultyIO` also models the one failure mode
that cannot raise an exception — the *lying* fsync — by tracking the
last truly-synced length per file and offering
:meth:`FaultyIO.simulate_power_loss` to truncate away everything the
kernel never actually persisted.
"""

from __future__ import annotations

import errno
import os
from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from typing import IO, TYPE_CHECKING

from repro.errors import ConfigurationError
from repro.storage.io import StorageIO

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.observability.metrics import MetricsRegistry

__all__ = [
    "FAULT_KINDS",
    "FaultEvent",
    "FaultSchedule",
    "FaultyIO",
]

FAULT_KINDS = ("enospc", "eio", "torn", "lying_fsync", "bitrot")
_OPS = ("open", "write", "fsync", "replace", "fsync_dir", "*")

# Real errno values so the defenses exercise genuine classification,
# not a test-only error type.
_ENOSPC = errno.ENOSPC
_EIO = errno.EIO


@dataclass
class FaultEvent:
    """One scheduled fault: the ``at``-th ``op`` at a matching ``site``."""

    site: str
    op: str
    at: int
    kind: str
    seen: int = 0
    fired: bool = False

    def matches(self, site: str, op: str) -> bool:
        return (self.op in ("*", op)) and fnmatchcase(site, self.site)

    def spec(self) -> str:
        return f"{self.site}:{self.op}@{self.at}={self.kind}"


@dataclass
class FaultSchedule:
    """An ordered set of :class:`FaultEvent` plus the injection ledger.

    One type serves every fault plane: storage here, the network in
    :mod:`repro.transport.faults`.  A plane differs only in the kinds
    and ops :meth:`parse` accepts and in the names its errors use.
    """

    events: list[FaultEvent] = field(default_factory=list)
    ledger: list[dict] = field(default_factory=list)

    @classmethod
    def parse(
        cls,
        spec: str,
        kinds: tuple[str, ...] = FAULT_KINDS,
        ops: tuple[str, ...] | None = _OPS,
        name: str = "fault",
        grammar: str = "site:op@N=kind",
    ) -> "FaultSchedule":
        """Build a schedule from the ``site:op@N=kind,...`` grammar.

        ``kinds`` and ``ops`` are the plane's vocabulary (``ops=None``
        accepts any non-empty op); ``name`` and ``grammar`` word its
        errors, e.g. ``"network fault"`` and ``"shard:op@N=kind"``.
        """
        events: list[FaultEvent] = []
        for raw in spec.split(","):
            token = raw.strip()
            if not token:
                continue
            try:
                left, kind = token.rsplit("=", 1)
                site_op, at_text = left.rsplit("@", 1)
                site, op = site_op.rsplit(":", 1)
                at = int(at_text)
            except ValueError as exc:
                raise ConfigurationError(
                    f"bad {name} spec {token!r}; expected {grammar}"
                ) from exc
            event = FaultEvent(
                site=site.strip(), op=op.strip(), at=at, kind=kind.strip()
            )
            if event.kind not in kinds:
                raise ConfigurationError(
                    f"unknown {name} kind {event.kind!r}; expected one of "
                    f"{kinds}"
                )
            if ops is not None and event.op not in ops:
                raise ConfigurationError(
                    f"unknown fault op {event.op!r}; expected one of {ops}"
                )
            if not event.op:
                raise ConfigurationError("fault op must be non-empty")
            if event.at < 1:
                raise ConfigurationError(
                    f"fault occurrence must be >= 1, got {event.at}"
                )
            events.append(event)
        if not events:
            raise ConfigurationError(
                f"{name} spec {spec!r} contains no events"
            )
        return cls(events=events)

    def step(self, site: str, op: str) -> FaultEvent | None:
        """Advance matching counters; return the event firing now, if any."""
        firing: FaultEvent | None = None
        for event in self.events:
            if not event.matches(site, op):
                continue
            event.seen += 1
            if firing is None and not event.fired and event.seen == event.at:
                event.fired = True
                firing = event
        if firing is not None:
            self.ledger.append(
                {
                    "site": site,
                    "op": op,
                    "occurrence": firing.at,
                    "kind": firing.kind,
                    "spec": firing.spec(),
                }
            )
        return firing

    @property
    def injected(self) -> int:
        return len(self.ledger)

    @property
    def exhausted(self) -> bool:
        """True once every scheduled event has fired."""
        return all(event.fired for event in self.events)

    def to_dict(self) -> dict:
        return {
            "events": [
                {"spec": event.spec(), "fired": event.fired,
                 "seen": event.seen}
                for event in self.events
            ],
            "injected": self.injected,
            "ledger": list(self.ledger),
        }


class FaultyIO(StorageIO):
    """A :class:`StorageIO` that injects the schedule's faults.

    Faults surface as raw :class:`OSError` with real ``errno`` values,
    exactly as the kernel would raise them — the typed classification
    and every defense downstream is exercised for real, not through a
    test-only side door.
    """

    name = "faulty"

    def __init__(
        self,
        schedule: FaultSchedule,
        metrics: "MetricsRegistry | None" = None,
    ) -> None:
        self.schedule = schedule
        self.metrics = metrics
        # path -> bytes truly fsync'd; what survives simulated power loss.
        self._synced: dict[str, int] = {}
        self._paths: dict[int, str] = {}

    # -- bookkeeping ---------------------------------------------------

    def _record(self, event: FaultEvent, op: str) -> None:
        if self.metrics is not None:
            self.metrics.counter(
                "fdeta_storage_faults_injected_total",
                "Storage faults injected by the chaos schedule.",
                labels=("kind", "op"),
            ).inc(kind=event.kind, op=op)

    def _path_of(self, handle: IO[bytes]) -> str | None:
        name = getattr(handle, "name", None)
        if isinstance(name, str):
            return name
        return None

    @staticmethod
    def _rot_byte(path: str) -> None:
        """Flip one deterministic byte (middle of the file) in place."""
        size = os.path.getsize(path)
        if size == 0:
            return
        offset = size // 2
        with open(path, "r+b") as handle:
            handle.seek(offset)
            byte = handle.read(1)
            handle.seek(offset)
            handle.write(bytes((byte[0] ^ 0xFF,)))

    # -- faulted operations --------------------------------------------

    def open(self, path: str, mode: str, *, site: str) -> IO[bytes]:
        event = self.schedule.step(site, "open")
        if event is not None:
            self._record(event, "open")
            if event.kind == "enospc":
                raise OSError(_ENOSPC, "No space left on device", path)
            raise OSError(_EIO, "Input/output error", path)
        return super().open(path, mode, site=site)

    def write(self, handle: IO[bytes], data: bytes, *, site: str) -> int:
        event = self.schedule.step(site, "write")
        if event is None:
            return super().write(handle, data, site=site)
        self._record(event, "write")
        if event.kind == "torn":
            # Half the buffer lands, then the device gives up — the
            # classic partial write a caller must be able to roll back.
            handle.write(data[: len(data) // 2])
            raise OSError(_EIO, "Input/output error (torn write)")
        if event.kind == "enospc":
            raise OSError(_ENOSPC, "No space left on device")
        if event.kind == "bitrot":
            written = super().write(handle, data, site=site)
            handle.flush()
            path = self._path_of(handle)
            if path is not None:
                self._rot_byte(path)
            return written
        raise OSError(_EIO, "Input/output error")

    def fsync(self, handle: IO[bytes], *, site: str) -> None:
        event = self.schedule.step(site, "fsync")
        path = self._path_of(handle)
        if event is not None:
            self._record(event, "fsync")
            if event.kind == "lying_fsync":
                # The lie: report success, persist nothing.  Data stays
                # visible to this process (page cache) but the synced
                # watermark does not advance — simulate_power_loss()
                # truncates back to it.
                handle.flush()
                return
            if event.kind == "enospc":
                raise OSError(_ENOSPC, "No space left on device")
            if event.kind == "bitrot":
                super().fsync(handle, site=site)
                if path is not None:
                    self._rot_byte(path)
                    self._synced[path] = os.path.getsize(path)
                return
            raise OSError(_EIO, "Input/output error")
        super().fsync(handle, site=site)
        if path is not None:
            self._synced[path] = os.fstat(handle.fileno()).st_size

    def replace(self, src: str, dst: str, *, site: str) -> None:
        event = self.schedule.step(site, "replace")
        if event is None:
            super().replace(src, dst, site=site)
            self._synced[dst] = self._synced.pop(src, os.path.getsize(dst))
            return
        self._record(event, "replace")
        if event.kind == "enospc":
            raise OSError(_ENOSPC, "No space left on device", dst)
        if event.kind == "eio":
            raise OSError(_EIO, "Input/output error", dst)
        if event.kind == "torn":
            # The rename happens but the destination lands half-written
            # — what a non-atomic writer (or a firmware lie about
            # rename ordering) leaves behind.
            super().replace(src, dst, site=site)
            size = os.path.getsize(dst)
            with open(dst, "r+b") as handle:
                handle.truncate(max(size // 2, 1))
            return
        # bitrot / lying_fsync on replace: complete it, then rot a byte.
        super().replace(src, dst, site=site)
        self._rot_byte(dst)

    def fsync_dir(self, path: str, *, site: str) -> None:
        event = self.schedule.step(site, "fsync_dir")
        if event is not None:
            self._record(event, "fsync_dir")
            if event.kind == "lying_fsync":
                return
            if event.kind == "enospc":
                raise OSError(_ENOSPC, "No space left on device", path)
            raise OSError(_EIO, "Input/output error", path)
        super().fsync_dir(path, site=site)

    # -- crash modelling -----------------------------------------------

    def simulate_power_loss(self) -> list[tuple[str, int, int]]:
        """Truncate every tracked file to its last *truly* synced length.

        Models losing the page cache: bytes written after the last real
        fsync vanish.  Returns ``(path, kept, lost)`` per truncated
        file so tests can assert exactly what the lie cost.
        """
        truncated: list[tuple[str, int, int]] = []
        for path, synced in sorted(self._synced.items()):
            try:
                size = os.path.getsize(path)
            except OSError:
                continue
            if size > synced:
                with open(path, "r+b") as handle:
                    handle.truncate(synced)
                truncated.append((path, synced, size - synced))
        return truncated
