"""Crash-safe checkpoint/restore of the monitoring service.

A control-centre process that dies mid-week must not lose weeks of
accumulated history and trained detectors: retraining from scratch opens
exactly the blind window an attacker wants.  The checkpoint captures the
full :class:`~repro.core.online.TheftMonitoringService` state — store
contents, fitted detectors, circuit-breaker states, quarantine sets,
reports — so a restarted process resumes mid-week and produces reports
bit-identical to an uninterrupted run.

Three things are deliberately *not* serialized and must be re-supplied
at restore time, because they are code or open resources, not state: the
``detector_factory`` callable (frequently a lambda, hence unpicklable),
the optional balance ``auditor``, and the optional ``events`` logger
(it holds an open stream).  The service's metrics registry and tracer
*are* state and round-trip with the checkpoint, so a resumed run's
counters continue from where the checkpointed run stopped.

Writes are atomic (temp file + fsync + ``os.replace`` + parent-directory
fsync, all through the pluggable :mod:`repro.storage` I/O layer) so a
crash — or an injected fault — during checkpointing leaves the previous
checkpoint intact.  Each file ends with a SHA-256 integrity footer
(``pickle.load`` reads exactly one object and ignores trailing bytes,
so the format stays loadable by structure while at-rest bit-rot becomes
*detectable*: a flipped byte fails verification instead of silently
restoring a forged history).  Saving also preserves the previous
checkpoint at ``<path>.prev``: when the current generation is corrupt,
:func:`~repro.durability.recovery.recover_monitor` restores ``.prev``
and replays the WAL forward from it.
"""

from __future__ import annotations

import hashlib
import io as _io
import os
import pickle
from typing import TYPE_CHECKING, Callable

from repro.errors import CheckpointError, CorruptCheckpointError
from repro.storage.io import (
    atomic_write_bytes,
    classify_storage_error,
    current_io,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.online import TheftMonitoringService
    from repro.detectors.base import WeeklyDetector
    from repro.grid.balance import BalanceAuditor
    from repro.observability.events import EventLogger
    from repro.observability.tracing import Tracer

#: Bump when the state layout changes; old checkpoints are rejected.
#: v2 added the observability state (metrics registry + tracer).
#: v3 added the reading-integrity firewall (policy + quarantine store).
#: v4 added overload control (loadcontrol config; reports carry
#: ``shed``).
#: v5 added event-time state (EventTimeConfig, the revision log, and
#: the per-week pinned scoring frameworks).
#: v6 added training-integrity state (IntegrityConfig, the versioned
#: model registry with lineage and restore points, and the sentinel's
#: suspect-week exclusions).
#: v7 dropped the slot clock from the firewall and the EventTimeConfig
#: (its module is gone, so a v6 file no longer unpickles).
CHECKPOINT_VERSION = 7

_MAGIC = "fdeta-checkpoint"

#: Integrity footer: 8-byte magic + SHA-256 of every preceding byte.
#: ``pickle.load`` stops at the end of the pickled object, so the
#: footer is invisible to loading and only consulted by verification.
_FOOTER_MAGIC = b"FDETASUM"
_FOOTER_LEN = len(_FOOTER_MAGIC) + hashlib.sha256().digest_size

#: Where :func:`save_checkpoint` preserves the previous generation.
PREVIOUS_SUFFIX = ".prev"


def previous_generation_path(path: str | os.PathLike) -> str:
    """The on-disk location of the preserved previous checkpoint."""
    return os.fspath(path) + PREVIOUS_SUFFIX


def _seal(data: bytes) -> bytes:
    """Append the integrity footer to serialized checkpoint bytes."""
    return data + _FOOTER_MAGIC + hashlib.sha256(data).digest()


def verify_checkpoint_bytes(data: bytes) -> str:
    """Integrity verdict for raw checkpoint bytes.

    Returns ``"ok"`` (footer present and digest matches), ``"legacy"``
    (no footer — written before integrity sealing, unverifiable but not
    evidence of corruption), or ``"corrupt"`` (footer present, digest
    mismatch: the file changed after it was sealed).
    """
    if len(data) < _FOOTER_LEN:
        return "legacy"
    body, footer = data[:-_FOOTER_LEN], data[-_FOOTER_LEN:]
    if not footer.startswith(_FOOTER_MAGIC):
        return "legacy"
    digest = footer[len(_FOOTER_MAGIC):]
    return "ok" if hashlib.sha256(body).digest() == digest else "corrupt"


def verify_checkpoint(path: str | os.PathLike) -> str:
    """Integrity verdict for a checkpoint file.

    ``"missing"`` when the file does not exist; otherwise the
    :func:`verify_checkpoint_bytes` verdict (``"ok"`` / ``"legacy"`` /
    ``"corrupt"``).
    """
    try:
        with open(os.fspath(path), "rb") as handle:
            data = handle.read()
    except FileNotFoundError:
        return "missing"
    return verify_checkpoint_bytes(data)


def save_checkpoint(
    service: "TheftMonitoringService", path: str | os.PathLike
) -> None:
    """Atomically serialize the full service state to ``path``.

    When a checkpoint already exists, its bytes are first preserved at
    ``<path>.prev`` — the generation recovery falls back to — via its
    own atomic write, so no crash window ever leaves the tree without
    at least one complete checkpoint.
    """
    payload = {
        "magic": _MAGIC,
        "version": CHECKPOINT_VERSION,
        "state": service._state_dict(),
    }
    target = os.fspath(path)
    data = _seal(pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))
    io = current_io()
    try:
        with open(target, "rb") as handle:
            current = handle.read()
    except OSError:
        current = None
    # Only promote a *verifiably sane* current file to .prev — a corrupt
    # current must never overwrite the good generation recovery would
    # fall back to.
    if current is not None and verify_checkpoint_bytes(current) != "corrupt":
        atomic_write_bytes(
            previous_generation_path(target),
            current,
            site="checkpoint.prev",
            io=io,
        )
    try:
        atomic_write_bytes(target, data, site="checkpoint", io=io)
    except OSError as exc:  # pragma: no cover - classified by atomic write
        raise classify_storage_error(exc, "checkpoint") from exc


def load_checkpoint(
    path: str | os.PathLike,
    detector_factory: Callable[[], "WeeklyDetector"],
    auditor: "BalanceAuditor | None" = None,
    events: "EventLogger | None" = None,
    tracer: "Tracer | None" = None,
) -> "TheftMonitoringService":
    """Restore a service from ``path``.

    ``detector_factory`` (and ``auditor``, if one was in use) must match
    the ones the checkpointed service was built with; already-fitted
    detectors are restored as-is, the factory is only used for future
    retraining.  ``events`` attaches a fresh event logger; ``tracer``
    overrides the checkpointed trace state when provided.

    A checkpoint whose integrity footer does not match its contents is
    **never** loaded — bit-rot surfaces as
    :class:`~repro.errors.CorruptCheckpointError` (as does a file that
    no longer unpickles into a checkpoint) instead of silently restoring
    a forged history.  A version mismatch is a plain
    :class:`CheckpointError`: the file is intact, just unreadable by
    this code — as is a file whose pickle names a module this code no
    longer has (written by an incompatible version; it must not fall
    back to ``.prev``, which would hide the mismatch).
    """
    from repro.core.online import TheftMonitoringService

    path = os.fspath(path)
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except FileNotFoundError:
        raise CheckpointError(f"no checkpoint at {path!r}") from None
    if verify_checkpoint_bytes(data) == "corrupt":
        raise CorruptCheckpointError(
            f"checkpoint {path!r} failed integrity verification (at-rest "
            f"corruption); recovery with a WAL falls back to the previous "
            f"generation {previous_generation_path(path)!r}"
        )
    try:
        payload = pickle.load(_io.BytesIO(data))
    except ImportError as exc:
        raise CheckpointError(
            f"checkpoint {path!r} was written by an incompatible version "
            f"({exc}); expected version {CHECKPOINT_VERSION}"
        ) from exc
    except (pickle.UnpicklingError, EOFError, AttributeError) as exc:
        raise CorruptCheckpointError(
            f"checkpoint {path!r} is corrupt: {exc}"
        ) from exc
    if not isinstance(payload, dict) or payload.get("magic") != _MAGIC:
        raise CorruptCheckpointError(f"{path!r} is not an F-DETA checkpoint")
    version = payload.get("version")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint {path!r} has version {version}, "
            f"expected {CHECKPOINT_VERSION}"
        )
    return TheftMonitoringService._from_state(
        payload["state"],
        detector_factory=detector_factory,
        auditor=auditor,
        events=events,
        tracer=tracer,
    )
