"""Exception hierarchy for the F-DETA reproduction.

All library-specific exceptions derive from :class:`FDetaError` so that
callers can catch everything raised intentionally by this package with a
single ``except`` clause while letting programming errors propagate.
"""

from __future__ import annotations


class FDetaError(Exception):
    """Base class for all errors raised by this package."""


class ConfigurationError(FDetaError):
    """A component was configured with invalid or inconsistent parameters."""


class TopologyError(FDetaError):
    """An operation on the distribution grid topology was invalid."""


class MeteringError(FDetaError):
    """A metering operation failed (unknown meter, bad reading, ...)."""


class PricingError(FDetaError):
    """A pricing scheme was queried outside its domain."""


class DataError(FDetaError):
    """A dataset is malformed, too short, or otherwise unusable."""


class ModelError(FDetaError):
    """A statistical model could not be fit or used for prediction."""


class NotFittedError(ModelError):
    """A model or detector was used before being fit/trained."""


class InjectionError(FDetaError):
    """An attack injection could not be constructed."""


class ResilienceError(FDetaError):
    """A fault-tolerance mechanism could not do its job."""


class CheckpointError(ResilienceError):
    """A monitoring-service checkpoint could not be written or restored."""


class CorruptCheckpointError(CheckpointError):
    """A checkpoint's bytes are damaged: its integrity footer does not
    match, or it no longer unpickles into an F-DETA checkpoint.

    Unlike a version mismatch, this is at-rest corruption of one
    generation; :func:`~repro.durability.recovery.recover_monitor`
    falls back to the previous generation when it sees it.
    """


class NonFiniteInputError(DataError):
    """A computation received NaN/inf where finite values are required.

    Raised instead of letting non-finite values propagate into detector
    scores, where a NaN would silently defeat every threshold
    comparison (``nan > threshold`` is ``False``).
    """


class LoadControlError(ResilienceError):
    """The overload-control layer (queues, shedding, deadlines) failed."""


class QueueDrainedError(LoadControlError):
    """A bounded ingestion queue was taken from while empty."""


class SupervisorError(LoadControlError):
    """The shard fleet (:class:`repro.scaleout.ElasticFleet`) could not
    keep its workers healthy: a closed fleet, an unknown or dead shard,
    or a rebalance refused across a partition."""


class WorkerCrashed(SupervisorError):
    """A shard monitor worker died mid-cycle.

    Raised by workers (or injected by test harnesses) to signal that the
    worker's in-memory state is gone; the fleet responds by restarting
    the shard from its checkpoint and write-ahead log and re-ingesting
    the same cycle.
    """


class HandoffError(SupervisorError):
    """A shard handoff (quiesce → snapshot → commit → install) failed."""


class StaleWriterError(HandoffError):
    """A worker from a superseded ownership epoch tried to write.

    Every shard carries a monotonically increasing *ownership epoch*;
    handoffs and restarts bump it.  A worker fenced behind the current
    epoch must not ingest — its shard has been handed to a newer
    incarnation, and letting the stale writer through would fork the
    shard's history.
    """


class TransportError(ResilienceError):
    """A control-plane message between coordinator and shard failed.

    The typed face of the network between the fleet coordinator and its
    shard workers (:mod:`repro.transport`).  Subclasses distinguish the
    caller's three responses: retry (:class:`TransportTimeout`,
    :class:`CorruptEnvelopeError`), degrade and buffer
    (:class:`UnreachableShardError`), or stand down
    (:class:`StaleLeaseError`).
    """


class TransportTimeout(TransportError):
    """A request's reply window elapsed; delivery is *unknown*.

    The request may never have arrived (dropped) or may have executed
    with its reply lost (delayed) — the caller cannot tell, which is
    exactly why every envelope carries a deterministic request id: the
    retry is either re-executed or absorbed as a duplicate, never
    applied twice.
    """


class CorruptEnvelopeError(TransportError):
    """An envelope's payload checksum failed verification on delivery.

    The endpoint rejects the frame before executing anything, so the
    caller can safely retry with a fresh copy of the same request.
    """


class UnreachableShardError(TransportError):
    """The link to a shard is severed (network partition).

    Retrying immediately cannot help; the coordinator responds by
    marking the shard unreachable, buffering its pending cycles, and
    probing for reconnection on later drains.
    """


class StaleLeaseError(StaleWriterError):
    """A coordinator without the shard's current lease tried to write.

    The lease is the cross-process face of the ownership epoch: it
    lives on the shard's transport endpoint, so even a *zombie*
    coordinator — an old in-process fleet whose fence map was never
    bumped by its successor — is refused at the wire.  Being a
    :class:`StaleWriterError`, every existing fencing defense catches
    it unchanged.
    """


class DurabilityError(ResilienceError):
    """The durable-ingestion layer (WAL, recovery) failed."""


class WALError(DurabilityError):
    """A write-ahead-log operation failed."""


class WALCorruptionError(WALError):
    """A WAL segment is corrupt beyond the tolerated torn tail."""


class RecoveryError(DurabilityError):
    """Crash recovery could not reconcile the WAL with the checkpoint."""


class StorageError(DurabilityError):
    """A durable-storage operation failed at the filesystem layer.

    This is the typed face of a raw :class:`OSError` escaping a durable
    write site (WAL append/sync, checkpoint replace, manifest rename,
    report export).  Subclasses distinguish the operator's three very
    different responses: retry (:class:`TransientStorageError`), stop
    accepting writes (:class:`DiskFullError`), or investigate.
    """


class TransientStorageError(StorageError):
    """A storage operation failed in a way worth retrying (``EIO``-class).

    Media hiccups, interrupted syscalls, and momentary controller
    resets usually succeed on the next attempt; the caller retries
    under a bounded :class:`~repro.resilience.retry.RetryPolicy` before
    escalating.
    """


class DiskFullError(StorageError):
    """The volume is out of space (``ENOSPC``/``EDQUOT``).

    Retrying cannot help until an operator frees space, so the durable
    monitor responds by entering degraded read-only mode instead.
    """


class StorageDegradedError(StorageError):
    """The monitor is in degraded read-only mode and refused a write.

    Raised *before* any bytes are appended, so the rejected cycle was
    never acknowledged — the producer still holds it and re-delivers it.
    Each re-delivery probes the volume
    (:meth:`~repro.durability.recovery.DurableTheftMonitor.try_resume`)
    and is accepted once a durable write lands again.
    """
