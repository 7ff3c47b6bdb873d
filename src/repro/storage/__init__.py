"""Storage-fault robustness: the pluggable durable-I/O layer.

Everything the pipeline persists — WAL segments, checkpoints, the fleet
manifest, report exports — flows through one seam
(:class:`~repro.storage.io.StorageIO`), so a deterministic fault
injector (:class:`~repro.storage.faults.FaultyIO` driven by a
:class:`~repro.storage.faults.FaultSchedule`) can break any individual
durable operation: ``ENOSPC``, ``EIO``, torn partial writes, lying
``fsync``, at-rest bit-rot.  The defenses proven against it live next
door: the typed :class:`~repro.errors.StorageError` triage with bounded
transient retries (:func:`~repro.storage.io.retry_io`), the shared
atomic-write helpers (:func:`~repro.storage.io.atomic_write_json`),
disk-full degraded read-only mode (in
:class:`~repro.durability.recovery.DurableTheftMonitor`), and the
checkpoint-generation fallback in
:func:`~repro.durability.recovery.recover_monitor`, which survives
at-rest bit-rot of the current checkpoint.
"""

from repro.storage.faults import (
    FAULT_KINDS,
    FaultEvent,
    FaultSchedule,
    FaultyIO,
)
from repro.storage.io import (
    StorageIO,
    atomic_write_bytes,
    atomic_write_json,
    classify_storage_error,
    current_io,
    install_io,
    retry_io,
)

__all__ = [
    "FAULT_KINDS",
    "FaultEvent",
    "FaultSchedule",
    "FaultyIO",
    "StorageIO",
    "atomic_write_bytes",
    "atomic_write_json",
    "classify_storage_error",
    "current_io",
    "install_io",
    "retry_io",
]
