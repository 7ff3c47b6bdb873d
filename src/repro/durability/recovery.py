"""Crash recovery: reconcile the WAL with the latest checkpoint.

The durable ingestion contract has two layers with different cadences:
the *checkpoint* (atomic full-service snapshot, written once per
completed week) and the *WAL* (every polling cycle, fsynced).  Recovery
composes them: restore the newest checkpoint, then replay the WAL
records the checkpoint does not cover — in order, through the exact
same ingestion path (firewall screening included) a live head-end would
use — so the recovered service is indistinguishable from one that never
crashed, minus at most the unsynced WAL tail.  A corrupt checkpoint is
survived the same way on every durable path: recovery falls back to the
previous generation (``<path>.prev``) and replays the WAL forward from
there, which is why compaction always lags one generation behind.

:class:`DurableTheftMonitor` is the write-side counterpart: it wraps a
:class:`~repro.core.online.TheftMonitoringService` so every cycle is
WAL-appended before it is ingested, checkpoints at week boundaries, and
compacts WAL segments the checkpoint has made redundant.  It also makes
post-recovery re-polls idempotent: a cycle re-delivered with an index
the service has already ingested is absorbed slot-addressed
(last-write-wins) instead of being appended — re-polling the lost tail
can never double-count consumption.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Mapping

from repro.durability.wal import WriteAheadLog, replay_wal
from repro.errors import (
    ConfigurationError,
    CorruptCheckpointError,
    DiskFullError,
    RecoveryError,
    StorageDegradedError,
    TransientStorageError,
)
from repro.quarantine.firewall import MeterReading
from repro.resilience.checkpoint import (
    previous_generation_path,
    verify_checkpoint,
)

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.core.online import MonitoringReport, TheftMonitoringService
    from repro.detectors.base import WeeklyDetector
    from repro.grid.balance import BalanceAuditor
    from repro.grid.snapshot import DemandSnapshot
    from repro.loadcontrol.deadline import Deadline
    from repro.loadcontrol.queue import BackpressureSignal
    from repro.observability.events import EventLogger
    from repro.observability.tracing import Tracer

__all__ = ["DurableTheftMonitor", "RecoveryResult", "recover_monitor"]

@dataclass(frozen=True)
class RecoveryResult:
    """What :func:`recover_monitor` rebuilt and from where.

    ``generation`` names the checkpoint generation restored:
    ``"current"``, ``"previous"`` (the current one was corrupt), or
    ``None`` when the service was rebuilt from the WAL alone.
    """

    service: "TheftMonitoringService"
    generation: str | None
    replayed_cycles: int
    skipped_records: int
    torn_tail: bool

    @property
    def restored_from_checkpoint(self) -> bool:
        return self.generation is not None


def recover_monitor(
    wal_dir: str | os.PathLike,
    detector_factory: "Callable[[], WeeklyDetector] | None" = None,
    checkpoint_path: str | os.PathLike | None = None,
    service_factory: "Callable[[], TheftMonitoringService] | None" = None,
    auditor: "BalanceAuditor | None" = None,
    events: "EventLogger | None" = None,
    tracer: "Tracer | None" = None,
) -> RecoveryResult:
    """Rebuild a monitoring service after a crash.

    Restores the newest sound generation of ``checkpoint_path``
    (requiring ``detector_factory``): the current file, or — when it
    fails its integrity footer or no longer unpickles — the previous
    generation at ``<path>.prev``.  With neither, a fresh service comes
    from ``service_factory``.  Every WAL cycle the restored state does
    not cover is then replayed.  Records already covered by the
    checkpoint are skipped (the reconciliation), so a WAL that overlaps
    the checkpoint — the normal case — cannot double-ingest.  A WAL
    whose first uncovered record is *later* than the checkpoint's next
    cycle means readings were lost between checkpoint and log (e.g. the
    WAL was compacted past the generation restored) and raises
    :class:`~repro.errors.RecoveryError` rather than resuming with a
    silent hole in every series.  A checkpoint written by an
    incompatible version raises :class:`~repro.errors.CheckpointError`:
    it is intact, and falling back past it would hide the mismatch.

    Each corrupt generation skipped logs a ``checkpoint_fallback``
    warning and counts in ``fdeta_storage_checkpoint_corruptions_total``
    on the recovered service's registry.
    """
    from repro.core.online import TheftMonitoringService

    service = None
    generation = None
    corrupt: list[tuple[str, str, str]] = []
    candidates = (
        ()
        if checkpoint_path is None
        else (
            ("current", os.fspath(checkpoint_path)),
            ("previous", previous_generation_path(checkpoint_path)),
        )
    )
    for name, path in candidates:
        status = verify_checkpoint(path)
        if status == "missing":
            continue
        if detector_factory is None:
            raise ConfigurationError(
                f"recover_monitor needs detector_factory to restore "
                f"checkpoint {path!r}"
            )
        if status == "corrupt":
            corrupt.append((name, path, "failed integrity verification"))
            continue
        try:
            service = TheftMonitoringService.restore(
                path,
                detector_factory,
                auditor=auditor,
                events=events,
                tracer=tracer,
            )
        except CorruptCheckpointError as exc:
            corrupt.append((name, path, str(exc)))
            continue
        generation = name
        break
    if service is None:
        if service_factory is None:
            raise ConfigurationError(
                "no sound checkpoint to restore; recover_monitor needs "
                "service_factory to build a fresh service"
            )
        service = service_factory()
    for name, path, reason in corrupt:
        service.metrics.counter(
            "fdeta_storage_checkpoint_corruptions_total",
            "Corrupt checkpoint generations skipped by recovery.",
        ).inc()
        if service.events is not None:
            service.events.warning(
                "checkpoint_fallback",
                generation=name,
                path=path,
                reason=reason,
                restored=generation or "none",
            )
    wal_path = os.fspath(wal_dir)
    if generation is None and not os.path.isdir(wal_path):
        # Without a checkpoint the WAL *is* the state; silently
        # replaying an absent directory would hand back a fresh service
        # and erase the history the caller asked to recover.
        raise RecoveryError(
            f"WAL directory {wal_path!r} does not exist and no checkpoint "
            f"was restored — there is nothing to recover from; check the "
            f"WAL path, or start without recovery to begin fresh"
        )
    replay = replay_wal(wal_dir)
    expected = service.cycles_ingested
    replayed = 0
    skipped = 0
    for record in replay.cycles():
        if record.cycle < expected:
            skipped += 1
            continue
        if record.cycle > expected:
            raise RecoveryError(
                f"WAL gap: service resumes at cycle {expected} but the "
                f"log jumps to cycle {record.cycle}; readings between "
                "checkpoint and WAL were lost"
            )
        service.ingest_cycle(record.readings or {})
        expected += 1
        replayed += 1
    if service.events is not None:
        service.events.info(
            "recovery_completed",
            wal_dir=os.fspath(wal_dir),
            generation=generation,
            replayed_cycles=replayed,
            skipped_records=skipped,
            torn_tail=replay.torn_tail,
            cycle=service.cycles_ingested,
            week=service.weeks_completed,
        )
    return RecoveryResult(
        service=service,
        generation=generation,
        replayed_cycles=replayed,
        skipped_records=skipped,
        torn_tail=replay.torn_tail,
    )


class DurableTheftMonitor:
    """WAL-backed ingestion front for the monitoring service.

    Parameters
    ----------
    service:
        The wrapped monitoring service (fresh or recovered).
    wal:
        An open :class:`~repro.durability.wal.WriteAheadLog`.
    checkpoint_path:
        When given, the service checkpoints here at every week boundary
        and the WAL is compacted to the checkpoint.
    sync_every_cycles:
        fsync cadence; ``1`` (default) makes every acknowledged cycle
        durable, larger values trade the crash window for throughput.

    WAL compaction lags one checkpoint behind: segments are dropped only
    once the *previous* generation covers them, so a corrupt current
    checkpoint is always recoverable from ``<path>.prev`` plus replay.

    Disk-full degraded mode
    -----------------------
    A :class:`~repro.errors.DiskFullError` from the WAL flips the
    monitor into **degraded read-only mode**: the failed cycle was never
    acknowledged (the producer still holds it), the attached
    :class:`~repro.loadcontrol.queue.BackpressureSignal` engages so the
    producer holds its readings, and already-committed state keeps
    serving verdicts.  Every later :meth:`ingest_cycle` first probes the
    volume with :meth:`try_resume`: while the disk is still full the
    cycle is refused up front with
    :class:`~repro.errors.StorageDegradedError`; once a durable write
    lands again, ingestion resumes with that very cycle.  So a producer
    that re-delivers what was refused (the fleet re-offers a shard's
    head pending cycle every cycle) resumes on its own.
    """

    def __init__(
        self,
        service: "TheftMonitoringService",
        wal: WriteAheadLog,
        checkpoint_path: str | os.PathLike | None = None,
        sync_every_cycles: int = 1,
    ) -> None:
        if sync_every_cycles < 1:
            raise ConfigurationError(
                f"sync_every_cycles must be >= 1, got {sync_every_cycles}"
            )
        self.service = service
        self.wal = wal
        self.checkpoint_path = (
            os.fspath(checkpoint_path) if checkpoint_path is not None else None
        )
        self.sync_every_cycles = int(sync_every_cycles)
        self._last_checkpoint_cycle: int | None = None
        self._cycles_since_sync = 0
        self.redelivered_cycles = 0
        self.read_only = False
        self.degraded_reason: str | None = None

    @property
    def backpressure(self) -> "BackpressureSignal | None":
        """The wrapped service's pressure signal (delegated), so a
        BufferedIngestor can attach its signal through this wrapper."""
        return self.service.backpressure

    @backpressure.setter
    def backpressure(self, signal: "BackpressureSignal | None") -> None:
        self.service.backpressure = signal

    def ingest_cycle(
        self,
        reported: "Mapping[str, float | MeterReading]",
        snapshot: "DemandSnapshot | None" = None,
        cycle_index: int | None = None,
        deadline: "Deadline | None" = None,
    ) -> "MonitoringReport | None":
        """WAL-append then ingest one polling cycle.

        ``cycle_index`` defaults to the service's next expected cycle.
        An index the service has already ingested marks a *re-delivered*
        cycle (a head-end re-poll overlapping the recovered state): its
        readings are absorbed slot-addressed and idempotently
        (last-write-wins, counted as duplicates) without advancing the
        polling clock, so recovery overlap can never double-count.

        The WAL append and fsync are timed as the service's
        ``wal_append`` stage (checked against ``deadline``, the cycle's
        time budget, which is then handed to the service), so
        durability cost shows up in the same per-stage accounting as
        screening and scoring.

        In degraded read-only mode the call first probes the volume
        (:meth:`try_resume`) and raises
        :class:`~repro.errors.StorageDegradedError` if it is still full.
        """
        if self.read_only and not self.try_resume():
            raise StorageDegradedError(
                f"monitor is in degraded read-only mode "
                f"({self.degraded_reason}); the volume is still full, so "
                f"the cycle was not accepted — re-deliver it, and the "
                f"re-delivery probes the volume again"
            )
        expected = self.service.cycles_ingested
        if cycle_index is None:
            cycle_index = expected
        cycle_index = int(cycle_index)
        if cycle_index < expected:
            self._absorb_redelivery(cycle_index, reported)
            return None
        if cycle_index > expected:
            raise RecoveryError(
                f"cycle {cycle_index} delivered but the service expects "
                f"cycle {expected}; the head-end skipped ahead"
            )
        try:
            with self.service.stage("wal_append", deadline):
                self._append(cycle_index, reported)
        except DiskFullError as exc:
            # The append rolled back cleanly (no partial record) and the
            # cycle was never acknowledged; stop accepting and keep
            # serving verdicts from committed state.
            self._enter_degraded(f"WAL write hit disk-full: {exc}")
            raise StorageDegradedError(
                f"cycle {cycle_index} rejected: volume is full and the "
                f"monitor entered degraded read-only mode — the producer "
                f"must re-deliver it after space is freed"
            ) from exc
        report = self.service.ingest_cycle(reported, snapshot, deadline=deadline)
        if report is not None and self.checkpoint_path is not None:
            try:
                self.checkpoint()
            except DiskFullError as exc:
                # The cycle itself is safely in the WAL (appended and,
                # at the default cadence, synced); only the checkpoint
                # could not land.  The old checkpoint plus the log still
                # reconstruct everything, so acknowledge the report and
                # degrade instead of failing an already-durable cycle.
                self._enter_degraded(
                    f"weekly checkpoint hit disk-full: {exc}"
                )
        return report

    def checkpoint(self) -> None:
        """Checkpoint the service and compact what both generations cover.

        Order matters: sync the WAL first so the checkpoint never claims
        coverage of cycles the log could still lose, then drop only the
        segments the *previous* generation already covers — the log must
        still replay ``<path>.prev`` forward if the new file corrupts.
        """
        if self._cycles_since_sync:
            with self.service.stage("wal_sync"):
                self.wal.sync()
            self._cycles_since_sync = 0
        with self.service.stage("checkpoint"):
            self.service.checkpoint(self.checkpoint_path)
        cycle = self.service.cycles_ingested
        self.wal.mark_checkpoint(cycle)
        if self._last_checkpoint_cycle is not None:
            self.wal.compact(self._last_checkpoint_cycle)
        self._last_checkpoint_cycle = cycle

    def _enter_degraded(self, reason: str) -> None:
        if self.read_only:
            return
        self.read_only = True
        self.degraded_reason = reason
        metrics = getattr(self.service, "metrics", None)
        if metrics is not None:
            metrics.gauge(
                "fdeta_storage_degraded",
                "1 while the durable monitor is in read-only degraded mode.",
            ).set(1.0)
            metrics.counter(
                "fdeta_storage_degraded_entries_total",
                "Times the durable monitor entered read-only degraded mode.",
            ).inc()
        signal = self.service.backpressure
        if signal is not None:
            signal.engage(depth=1, capacity=1)
        if self.service.events is not None:
            self.service.events.warning(
                "storage_degraded",
                reason=reason,
                cycle=self.service.cycles_ingested,
                read_only=True,
            )

    def try_resume(self) -> bool:
        """Probe the volume; leave degraded mode if a durable write lands.

        The probe is a real durable write (a WAL checkpoint-mark plus
        fsync), not a free-space guess — only evidence that bytes reach
        the platter re-opens ingestion.  Returns ``True`` when the
        monitor is (back) in normal mode.
        """
        if not self.read_only:
            return True
        try:
            self.wal.mark_checkpoint(self.service.cycles_ingested)
            self.wal.sync()
        except (DiskFullError, TransientStorageError):
            return False
        self.read_only = False
        self.degraded_reason = None
        metrics = getattr(self.service, "metrics", None)
        if metrics is not None:
            metrics.gauge(
                "fdeta_storage_degraded",
                "1 while the durable monitor is in read-only degraded mode.",
            ).set(0.0)
        signal = self.service.backpressure
        if signal is not None:
            signal.release(depth=0, capacity=1)
        if self.service.events is not None:
            self.service.events.info(
                "storage_resumed",
                cycle=self.service.cycles_ingested,
                read_only=False,
            )
        return True

    def _append(
        self,
        cycle_index: int,
        reported: "Mapping[str, float | MeterReading]",
    ) -> None:
        self.wal.append_cycle(cycle_index, reported)
        self._cycles_since_sync += 1
        if self._cycles_since_sync >= self.sync_every_cycles:
            self.wal.sync()
            self._cycles_since_sync = 0

    def _absorb_redelivery(
        self,
        cycle_index: int,
        reported: "Mapping[str, float | MeterReading]",
    ) -> None:
        self.redelivered_cycles += 1
        for cid, raw in reported.items():
            value = raw.value if isinstance(raw, MeterReading) else raw
            try:
                value = float(value)
            except (TypeError, ValueError):
                continue
            # Garbage must not overwrite an accepted reading; the
            # original delivery already went through the firewall.
            if math.isfinite(value) and value >= 0:
                self.service.store.record(cid, cycle_index, value)

    def close(self) -> None:
        self.wal.close()

    def __enter__(self) -> "DurableTheftMonitor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
