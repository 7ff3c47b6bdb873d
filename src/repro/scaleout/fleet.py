"""Elastic shard fleet: consistent-hash placement, live handoff, healing.

:class:`ElasticFleet` is the one sharded monitor: ``monitor --shards N``
and ``monitor --elastic`` both run on it.

* **placement** comes from a consistent-hash ring
  (:class:`~repro.scaleout.ring.HashRing`), so adding a shard moves
  only ~``n/shards`` consumers instead of reshuffling the whole roster
  away from the WALs that hold their history;
* **elasticity**: :meth:`add_shard` rebalances a *running* fleet
  through the snapshot+WAL handoff protocol
  (quiesce → snapshot → commit → install → finalize, see
  :mod:`repro.scaleout.handoff`) — per-consumer state packets migrate
  between shard services without replaying full history, and the
  atomically written ``fleet.json`` manifest makes a crash at any phase
  roll back (before commit) or roll forward idempotently (after);
* **ownership epochs** fence stale writers: every worker is wrapped in
  a :class:`~repro.scaleout.handoff.FencedMonitor` pinned to the epoch
  it was built under, and handoffs, restarts, and fleet cold starts
  bump the shard's current epoch;
* **per-shard watermarks** replace fleet lockstep: every shard has its
  own pending queue and a
  :class:`~repro.eventtime.watermark.WatermarkTracker` entry, so a
  hung or dead shard lags alone (bounded by ``hang_tolerance_cycles``,
  after which it is healed from checkpoint + WAL) while healthy shards
  keep ingesting at the frontier;
* **self-healing**: a worker that raises
  :class:`~repro.errors.WorkerCrashed` mid-cycle, was hard-killed
  (:meth:`ElasticFleet.kill`), or stayed hung past the tolerance is
  rebuilt from its checkpoint + WAL and re-fed the cycles its pending
  queue holds, counted in ``fdeta_fleet_restarts_total{reason=...}``;
* the **merged plane** (:mod:`repro.scaleout.plane`) aggregates
  per-shard verdicts, metrics, revisions, and reading stores into the
  fleet-wide view, bit-identical to an unsharded run;
* the **transport seam** (:mod:`repro.transport`): every control-plane
  mutation — ingest dispatch, reconnection heartbeats, handoff
  checkpoints, extract/adopt migration — travels as an idempotent
  request-id-tagged envelope through a pluggable
  :class:`~repro.transport.Transport`.  Write kinds are **lease-fenced**
  at the shard endpoint (ownership survives the coordinator that
  granted it, closing the zombie-coordinator gap in the in-process
  fence maps), and a shard whose link is severed degrades gracefully:
  it is marked *unreachable*, its cycles buffer in the pending queue,
  and reconnection probes heal it with bounded replay — duplicates are
  absorbed by request id, so the merged verdicts after a heal are
  bit-identical to an undisturbed run.
"""

from __future__ import annotations

import itertools
import os
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Mapping

from repro.durability.recovery import DurableTheftMonitor, recover_monitor
from repro.durability.wal import WriteAheadLog
from repro.errors import (
    ConfigurationError,
    StorageDegradedError,
    SupervisorError,
    TransientStorageError,
    TransportTimeout,
    UnreachableShardError,
    WorkerCrashed,
)
from repro.eventtime.watermark import WatermarkTracker
from repro.observability.tracing import Tracer
from repro.scaleout import plane  # noqa: F401 - package init imports plane first
from repro.scaleout.handoff import (
    FencedMonitor,
    HandoffRecord,
    read_manifest,
    write_manifest,
)
from repro.scaleout.ring import (
    DEFAULT_RING_SEED,
    DEFAULT_VNODES,
    HashRing,
    balanced_assignments,
)
from repro.transport import InProcTransport, ShardClient, Transport

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    import numpy as np

    from repro.core.online import MonitoringReport, TheftMonitoringService
    from repro.detectors.base import WeeklyDetector
    from repro.grid.snapshot import DemandSnapshot
    from repro.loadcontrol.deadline import Deadline
    from repro.loadcontrol.queue import BackpressureSignal
    from repro.observability.events import EventLogger
    from repro.observability.metrics import MetricsRegistry
    from repro.observability.ops import StageProfiler

__all__ = ["ElasticFleet", "ShardWorker"]

#: Called at the entry of each handoff phase; chaos tests raise here to
#: simulate a coordinator crash mid-handoff.
PhaseHook = Callable[[str], None]

#: Distinct default holder names per coordinator incarnation, so two
#: fleets sharing a transport (the zombie scenario) never collide.
_COORDINATOR_IDS = itertools.count(1)


@dataclass
class ShardWorker:
    """Fleet-side view of one shard worker."""

    name: str
    wal_dir: str
    checkpoint_path: str
    consumers: tuple[str, ...]
    monitor: FencedMonitor | None = None
    pending: deque = field(default_factory=deque)
    last_cycle: int = -1
    beats: int = 0
    restarts: int = 0
    hung: bool = False
    #: The shard's transport link is severed (network partition): the
    #: worker process may be perfectly healthy, but the coordinator
    #: cannot reach it.  Cycles buffer in ``pending`` until a
    #: reconnection probe succeeds.
    unreachable: bool = False
    #: Checkpoint generation the worker was last recovered from:
    #: ``"current"``, ``"previous"`` (the current one was corrupt), or
    #: ``None`` (started fresh or rebuilt from the WAL alone).
    generation: str | None = None


class ElasticFleet:
    """Runs an elastic, self-healing fleet of shard monitor workers.

    Parameters
    ----------
    roster:
        The full consumer roster.
    base_dir:
        Directory holding the fleet manifest (``fleet.json``), each
        shard's WAL directory and checkpoint.  Reopening a fleet over
        an existing ``base_dir`` recovers the persisted topology
        (including any half-finished handoff, which is rolled forward)
        and every shard's durable state — the ``roster``/``n_shards``
        arguments are then ignored in favour of the manifest.  A
        ``base_dir`` that holds per-shard WALs and checkpoints but no
        manifest (the layout of a fixed ``shard-NNNN`` fleet) is placed
        by the ring as a fresh fleet would be, and each shard recovers
        its own durable state.
    service_factory:
        ``service_factory(consumers)`` builds a fresh
        :class:`~repro.core.online.TheftMonitoringService`; it must
        pass ``population=consumers`` through, *including* when
        ``consumers`` is ``None`` (a shard created mid-run starts with
        a deferred population and adopts its consumers via handoff).
    detector_factory:
        Used for checkpoint restore during recovery.
    n_shards:
        Initial shard count (fresh fleets only).
    hang_tolerance_cycles:
        How many cycles a shard may lag the dispatch frontier before it
        is declared hung and healed.  Also bounds each shard's pending
        queue, so a wedged shard cannot grow memory without limit.
    sync_every_cycles:
        Per-shard WAL fsync cadence.
    tracer:
        Optional fleet-level :class:`~repro.observability.tracing.Tracer`.
        When set, every handoff records a ``shard_handoff`` root span
        with one child per protocol phase, per-shard extract/adopt work
        is recorded on each shard service's own tracer (created
        per-shard when the service has none) parented to the install
        phase, and crash roll-forwards link back to the originating
        handoff's trace via the manifest.  Stitch the fleet's tracers
        with :func:`~repro.observability.tracing.stitch_traces`.
    slo:
        Optional :class:`~repro.observability.ops.SLOTracker`; call
        :meth:`observe_slo` at a meaningful cadence (each cycle or each
        week boundary) to record compliance points.
    transport:
        The :class:`~repro.transport.Transport` carrying every
        control-plane mutation (defaults to a private
        :class:`~repro.transport.InProcTransport`).  Pass a
        :class:`~repro.transport.FaultyTransport` to chaos-test the
        fleet, or share one transport between two fleet incarnations to
        exercise the zombie-coordinator fences.
    lease_ttl_cycles:
        How many cycles of holder silence before a shard lease can be
        claimed by a lower-epoch requester.  Renewed implicitly by
        every accepted write, so a live coordinator never loses a shard
        it is driving.
    holder:
        This coordinator's lease identity; defaults to a fresh
        ``coordinator-N`` per fleet instance so incarnations sharing a
        transport are distinguishable.
    """

    MANIFEST = "fleet.json"

    def __init__(
        self,
        roster,
        base_dir: str | os.PathLike,
        service_factory: "Callable[[tuple[str, ...] | None], TheftMonitoringService]",
        detector_factory: "Callable[[], WeeklyDetector]",
        n_shards: int = 2,
        vnodes: int = DEFAULT_VNODES,
        ring_seed: int = DEFAULT_RING_SEED,
        hang_tolerance_cycles: int = 2,
        sync_every_cycles: int = 1,
        metrics: "MetricsRegistry | None" = None,
        events: "EventLogger | None" = None,
        tracer: Tracer | None = None,
        slo: "object | None" = None,
        transport: Transport | None = None,
        lease_ttl_cycles: int = 8,
        holder: str | None = None,
    ) -> None:
        if hang_tolerance_cycles < 1:
            raise ConfigurationError(
                f"hang_tolerance_cycles must be >= 1, got "
                f"{hang_tolerance_cycles}"
            )
        if lease_ttl_cycles < 1:
            raise ConfigurationError(
                f"lease_ttl_cycles must be >= 1, got {lease_ttl_cycles}"
            )
        self.base_dir = os.fspath(base_dir)
        self.service_factory = service_factory
        self.detector_factory = detector_factory
        self.hang_tolerance_cycles = int(hang_tolerance_cycles)
        self.sync_every_cycles = int(sync_every_cycles)
        self.metrics = metrics
        self.events = events
        #: Fleet-level tracer: handoff roots and phase spans land here;
        #: per-shard work lands on each service's own tracer, stitched
        #: back together via TraceContext links (see ``tracers()``).
        self.tracer = tracer
        #: Optional :class:`~repro.observability.ops.SLOTracker`; feed
        #: it via :meth:`observe_slo` at a meaningful cadence.
        self.slo = slo
        self._handoff_span = None
        self._phase_span = None
        self._backpressure: "BackpressureSignal | None" = None
        self._profiler: "StageProfiler | None" = None
        self.restarts_total = 0
        self.handoffs_total = 0
        self._closed = False
        self._cycle = 0
        #: The control-plane wire.  Endpoints are get-or-registered per
        #: shard so a lease granted to a previous incarnation survives
        #: into this one (and fences it out, if it is still writing).
        self.transport = transport if transport is not None else InProcTransport()
        self.lease_ttl_cycles = int(lease_ttl_cycles)
        self.holder = (
            holder
            if holder is not None
            else f"coordinator-{next(_COORDINATOR_IDS)}"
        )
        self._clients: dict[str, ShardClient] = {}
        self._probe_seq = 0
        self._ckpt_seq = 0
        self._fence: dict[str, int] = {}
        self._workers: dict[str, ShardWorker] = {}
        #: Per-shard ingestion watermarks (shard name -> last drained
        #: cycle).  ``lateness_slots=0``: the frontier *is* the newest
        #: drained cycle; a shard's lag is how far it trails it.
        self.watermarks = WatermarkTracker(lateness_slots=0)
        os.makedirs(self.base_dir, exist_ok=True)
        manifest = read_manifest(self._manifest_path)
        if manifest is None:
            self._init_fresh(roster, n_shards, vnodes, ring_seed)
        else:
            self._init_from_manifest(manifest)
        self._update_gauges()

    # ------------------------------------------------------------------
    # Construction / recovery
    # ------------------------------------------------------------------

    @property
    def _manifest_path(self) -> str:
        return os.path.join(self.base_dir, self.MANIFEST)

    def _shard_paths(self, name: str) -> tuple[str, str]:
        return (
            os.path.join(self.base_dir, name),
            os.path.join(self.base_dir, f"{name}.ckpt"),
        )

    def _init_fresh(
        self, roster, n_shards: int, vnodes: int, ring_seed: int
    ) -> None:
        ids = tuple(sorted(roster or ()))
        if not ids:
            raise ConfigurationError("fleet needs a non-empty roster")
        if n_shards < 1:
            raise ConfigurationError(f"n_shards must be >= 1, got {n_shards}")
        if n_shards > len(ids):
            raise ConfigurationError(
                f"cannot split {len(ids)} consumers into {n_shards} shards"
            )
        names = [f"shard-{i:04d}" for i in range(n_shards)]
        self._next_index = n_shards
        self._ring = HashRing(names, vnodes=vnodes, seed=ring_seed)
        assignment = balanced_assignments(self._ring, ids)
        for name in names:
            wal_dir, checkpoint_path = self._shard_paths(name)
            self._fence[name] = 1
            worker = ShardWorker(
                name=name,
                wal_dir=wal_dir,
                checkpoint_path=checkpoint_path,
                consumers=assignment[name],
            )
            self._workers[name] = worker
        try:
            for worker in self._workers.values():
                worker.monitor = self._build_worker(worker)
                worker.last_cycle = (
                    worker.monitor.service.cycles_ingested - 1
                )
        except BaseException:
            self.close()
            raise
        self._cycle = min(
            w.monitor.service.cycles_ingested
            for w in self._workers.values()
        )
        self._persist()

    def _init_from_manifest(self, manifest: Mapping) -> None:
        ring_cfg = manifest["ring"]
        self._next_index = int(manifest["next_shard_index"])
        self._ring = HashRing(
            manifest["shards"].keys(),
            vnodes=int(ring_cfg["vnodes"]),
            seed=int(ring_cfg["seed"]),
        )
        # A fresh incarnation owns every shard anew: bump every epoch so
        # any worker object surviving from the previous incarnation is
        # fenced out.
        for name, entry in manifest["shards"].items():
            self._fence[name] = int(entry["epoch"]) + 1
            wal_dir, checkpoint_path = self._shard_paths(name)
            self._workers[name] = ShardWorker(
                name=name,
                wal_dir=wal_dir,
                checkpoint_path=checkpoint_path,
                consumers=tuple(entry["consumers"]),
            )
        pending = manifest.get("pending")
        record = (
            HandoffRecord.from_json(pending) if pending is not None else None
        )
        try:
            for worker in self._workers.values():
                if (
                    record is not None
                    and worker.name in record.added
                    and not self._has_state(worker)
                ):
                    # A shard the interrupted handoff was adding but
                    # never checkpointed: starting it fresh here would
                    # give it a virgin clock at cycle 0.  Leave it to
                    # the roll-forward, which aligns its clock to a
                    # quiesced move source.
                    continue
                worker.monitor = self._build_worker(worker)
                worker.last_cycle = (
                    worker.monitor.service.cycles_ingested - 1
                )
            if record is not None:
                self._roll_forward(record)
        except BaseException:
            self.close()
            raise
        self._cycle = min(
            w.monitor.service.cycles_ingested
            for w in self._workers.values()
        )
        self._persist()

    def _fresh_service(
        self, consumers: tuple[str, ...] | None
    ) -> "TheftMonitoringService":
        service = self.service_factory(consumers)
        if service.eventtime is not None:
            raise ConfigurationError(
                "ElasticFleet does not support event-time services: "
                "pinned per-week scoring frameworks cannot migrate "
                "between shards"
            )
        return service

    @staticmethod
    def _has_state(worker: ShardWorker) -> bool:
        return bool(
            os.path.exists(worker.checkpoint_path)
            or (
                os.path.isdir(worker.wal_dir)
                and any(
                    entry.startswith("wal-")
                    for entry in os.listdir(worker.wal_dir)
                )
            )
        )

    def _build_worker(self, worker: ShardWorker) -> FencedMonitor:
        """Build (or rebuild) one shard worker from its durable state.

        Cold start and restart are the same code path: when the shard's
        directory holds a checkpoint or WAL segments the worker is
        recovered from them, otherwise it starts fresh.
        """
        if self._has_state(worker):
            consumers = worker.consumers
            result = recover_monitor(
                worker.wal_dir,
                detector_factory=self.detector_factory,
                checkpoint_path=worker.checkpoint_path,
                service_factory=lambda: self._fresh_service(consumers),
                events=self.events,
            )
            service = result.service
            worker.generation = result.generation
        else:
            service = self._fresh_service(worker.consumers)
            worker.generation = None
        return self._wrap(service, worker)

    @property
    def backpressure(self) -> "BackpressureSignal | None":
        """Fleet-wide pressure signal, set on every shard's service.

        :meth:`_wrap` attaches it to each worker it builds, so restarts,
        heals and :meth:`add_shard` re-attach it automatically.
        """
        return self._backpressure

    @backpressure.setter
    def backpressure(self, signal: "BackpressureSignal | None") -> None:
        self._backpressure = signal
        for worker in self._workers.values():
            if worker.monitor is not None:
                worker.monitor.service.backpressure = signal

    @property
    def profiler(self) -> "StageProfiler | None":
        """Fleet-wide stage profiler, set on every shard's service.

        Like :attr:`backpressure`, :meth:`_wrap` attaches it to each
        worker it builds, so a shard rebuilt by a heal restart or added
        by a rebalance stays in the profile.  A recovering shard's WAL
        replay runs before the attach, so only live cycles are profiled.
        """
        return self._profiler

    @profiler.setter
    def profiler(self, profiler: "StageProfiler | None") -> None:
        self._profiler = profiler
        for worker in self._workers.values():
            if worker.monitor is not None:
                worker.monitor.service.profiler = profiler

    def _wrap(
        self, service: "TheftMonitoringService", worker: ShardWorker
    ) -> FencedMonitor:
        service.backpressure = self._backpressure
        service.profiler = self._profiler
        if self.tracer is not None and service.tracer is None:
            # Per-shard tracers get the shard's name as their id
            # namespace, so stitched traces never collide across shards.
            service.tracer = Tracer(name=worker.name)
        wal = WriteAheadLog(worker.wal_dir, metrics=service.metrics)
        inner = DurableTheftMonitor(
            service,
            wal,
            checkpoint_path=worker.checkpoint_path,
            sync_every_cycles=self.sync_every_cycles,
        )
        fenced = FencedMonitor(
            inner, worker.name, self._fence[worker.name], self._fence
        )
        self._bind_endpoint(worker, fenced)
        return fenced

    # ------------------------------------------------------------------
    # Transport plumbing
    # ------------------------------------------------------------------

    def _client(self, name: str) -> ShardClient:
        client = self._clients.get(name)
        if client is None:
            client = ShardClient(
                self.transport,
                name,
                holder=self.holder,
                metrics=self.metrics,
            )
            self._clients[name] = client
        return client

    def _bind_endpoint(self, worker: ShardWorker, fenced: FencedMonitor) -> None:
        """Attach ``worker`` to the wire at its current ownership epoch.

        Order is load-bearing: the lease is (re)acquired *before* the
        handlers are rebound, so a zombie coordinator rebuilding a
        worker gets :class:`~repro.errors.StaleLeaseError` here and
        never overwrites its successor's handlers.  An unreachable
        shard degrades instead of failing the build — the endpoint may
        simply be on the far side of a partition; reconnection probes
        will finish the acquisition.
        """
        from repro.transport import ShardEndpoint

        name = worker.name
        endpoint = self.transport.endpoint_or_none(name)
        if endpoint is None:
            endpoint = self.transport.register(ShardEndpoint(name))
        try:
            self._client(name).acquire_lease(
                epoch=self._fence[name],
                seq=self._cycle,
                ttl=self.lease_ttl_cycles,
            )
        except (UnreachableShardError, TransportTimeout):
            self._mark_unreachable(worker)
            return
        worker.unreachable = False
        endpoint.bind(
            {
                "ingest": lambda p: fenced.ingest_cycle(
                    p["reported"],
                    p["snapshot"],
                    cycle_index=p["cycle"],
                    deadline=p["deadline"],
                ),
                "checkpoint": lambda p: fenced.checkpoint_now(),
                "heartbeat": lambda p: fenced.service.cycles_ingested,
                "health": lambda p: {
                    "cycles_ingested": fenced.service.cycles_ingested,
                    "weeks_completed": len(fenced.service.reports),
                },
                "extract": lambda p: fenced.service.extract_consumer(p),
                "adopt": lambda p: fenced.service.adopt_consumer(
                    p["consumer"], p["packet"]
                ),
            }
        )

    def _ingest(
        self,
        worker: ShardWorker,
        cycle: int,
        reported: Mapping,
        snapshot: "DemandSnapshot | None",
        deadline: "Deadline | None",
    ):
        """Dispatch one cycle to one shard over the transport.

        The request id is the logical identity ``shard:ingest:cycle``:
        a retry whose first attempt executed (reply lost) is absorbed
        by the endpoint's cache instead of double-ingesting the cycle.
        """
        reply = self._client(worker.name).call(
            "ingest",
            {
                "reported": reported,
                "snapshot": snapshot,
                "cycle": cycle,
                "deadline": deadline,
            },
            seq=cycle,
            lease_epoch=self._fence[worker.name],
            request_id=f"{worker.name}:ingest:{cycle}",
        )
        return reply.value

    def _checkpoint(self, worker: ShardWorker) -> None:
        """Checkpoint one shard over the transport (handoff phases)."""
        self._ckpt_seq += 1
        self._client(worker.name).call(
            "checkpoint",
            None,
            seq=self._cycle,
            lease_epoch=self._fence.get(worker.name, 0),
            request_id=f"{worker.name}:checkpoint:{self._ckpt_seq}",
        )

    def _mark_unreachable(self, worker: ShardWorker) -> None:
        if worker.unreachable:
            return
        worker.unreachable = True
        if self.metrics is not None:
            self.metrics.counter(
                "fdeta_fleet_unreachable_total",
                "Times a shard's transport link was found severed.",
                labels=("shard",),
            ).inc(shard=worker.name)
        if self.events is not None:
            self.events.warning(
                "fleet_shard_unreachable",
                shard=worker.name,
                cycle=self._cycle,
                backlog=len(worker.pending),
            )

    def _probe(self, worker: ShardWorker) -> bool:
        """One reconnection attempt against an unreachable shard.

        Re-runs the endpoint binding: the lease re-acquisition is the
        liveness probe (it needs no bound handlers), and on success the
        handlers are rebound and a heartbeat verifies the full RPC
        path.  The endpoint may have leased the shard to another
        coordinator while we were partitioned away, in which case
        :class:`~repro.errors.StaleLeaseError` propagates and this
        coordinator must stand down.  Heartbeat request ids are unique
        per probe — a probe is not an idempotent logical request; each
        one genuinely asks "can you hear me *now*?".
        """
        if worker.monitor is None:
            # Killed *and* partitioned: rebuild the local worker; the
            # rebuild's own endpoint binding completes the reconnection
            # if the link is back.
            self._restart(worker, reason="killed")
            return not worker.unreachable
        self._bind_endpoint(worker, worker.monitor)
        if worker.unreachable:
            return False
        self._probe_seq += 1
        try:
            self._client(worker.name).call(
                "heartbeat",
                None,
                seq=self._cycle,
                request_id=f"{worker.name}:heartbeat:{self._probe_seq}",
            )
        except (UnreachableShardError, TransportTimeout):
            self._mark_unreachable(worker)
            return False
        if self.events is not None:
            self.events.info(
                "fleet_shard_reconnected",
                shard=worker.name,
                cycle=self._cycle,
                backlog=len(worker.pending),
            )
        return True

    def _persist(self, pending: HandoffRecord | None = None) -> None:
        write_manifest(
            self._manifest_path,
            {
                "ring": {
                    "seed": self._ring.seed,
                    "vnodes": self._ring.vnodes,
                },
                "next_shard_index": self._next_index,
                "cycle": self._cycle,
                "shards": {
                    name: {
                        "consumers": list(w.consumers),
                        "epoch": self._fence[name],
                    }
                    for name, w in sorted(self._workers.items())
                },
                "pending": pending.to_json() if pending is not None else None,
            },
        )

    # ------------------------------------------------------------------
    # Dispatch (per-shard queues, no lockstep)
    # ------------------------------------------------------------------

    @property
    def cycle(self) -> int:
        """The next cycle index the fleet will dispatch."""
        return self._cycle

    @property
    def shards(self) -> tuple[str, ...]:
        return tuple(sorted(self._workers))

    @property
    def frontier(self) -> int:
        """Newest cycle any shard has drained (-1 before the first)."""
        return self.watermarks.frontier

    @property
    def low_watermark(self) -> int:
        """Newest cycle *every* shard has drained (-1 before the first).

        The fleet-wide completeness promise: merged weekly verdicts at
        or below this cycle are final with respect to every shard.
        """
        marks = [
            self.watermarks.high_marks.get(name, -1)
            for name in self._workers
        ]
        return min(marks, default=-1)

    def shard_lag(self, name: str) -> int:
        """How many cycles ``name`` trails the fleet frontier."""
        self._worker(name)
        return self.watermarks.consumer_lag(name)

    @staticmethod
    def _subset(worker: ShardWorker, reported: Mapping) -> dict:
        members = frozenset(worker.consumers)
        return {
            cid: value
            for cid, value in reported.items()
            if cid in members
        }

    def ingest_cycle(
        self,
        reported: Mapping,
        snapshot: "DemandSnapshot | None" = None,
        deadline: "Deadline | None" = None,
    ) -> dict[str, "MonitoringReport | None"]:
        """Queue one polling cycle to every shard and drain the queues.

        There is no fleet lockstep: each shard owns a pending queue
        and drains independently: a hung shard simply accumulates
        pending cycles (bounded by ``hang_tolerance_cycles``, after
        which it is healed and catches up), while every healthy shard
        ingests at the frontier.  Returns the per-shard weekly report
        completed by this drain (``None`` off week boundaries).
        """
        if self._closed:
            raise SupervisorError("fleet is closed")
        cycle = self._cycle
        reports: dict[str, "MonitoringReport | None"] = {}
        for name in sorted(self._workers):
            worker = self._workers[name]
            worker.pending.append(
                (cycle, self._subset(worker, reported), snapshot)
            )
            reports[name] = self._drain(worker, deadline)
        self._cycle += 1
        self._update_gauges()
        return reports

    def _drain(
        self, worker: ShardWorker, deadline: "Deadline | None" = None
    ) -> "MonitoringReport | None":
        if worker.unreachable and not self._probe(worker):
            # Still partitioned away: cycles keep buffering in the
            # pending queue (the partition buffer) and the health plane
            # reports the shard unreachable.  No restart — the worker
            # process itself may be perfectly healthy on the far side.
            return None
        if worker.hung:
            # A wedged worker neither ingests nor beats; it is healed
            # only once its backlog exceeds the hang tolerance (a slow
            # shard is not a dead one).  The pending bound is what
            # keeps a wedged shard's memory finite.
            if len(worker.pending) <= self.hang_tolerance_cycles:
                return None
            worker.hung = False
            self._restart(worker, reason="hang")
        if worker.monitor is None:
            self._restart(worker, reason="killed")
        assert worker.monitor is not None
        report: "MonitoringReport | None" = None
        while worker.pending:
            cycle, sub, snapshot = worker.pending[0]
            if cycle < worker.monitor.service.cycles_ingested:
                # Recovery already covers this cycle (a re-fed overlap
                # after a cold start); dropping it here keeps counters
                # serial-equal instead of counting absorbed duplicates.
                worker.pending.popleft()
                continue
            try:
                out = self._ingest(worker, cycle, sub, snapshot, deadline)
            except UnreachableShardError:
                # The link is severed.  Leave the cycle (and everything
                # behind it) buffered for replay after reconnection.
                self._mark_unreachable(worker)
                break
            except TransportTimeout:
                # Bounded retries exhausted without an acknowledgement:
                # delivery is unknown, so treat the shard as unreachable
                # and keep the cycle queued — the request id makes the
                # post-reconnection replay absorb any attempt that did
                # land.
                self._mark_unreachable(worker)
                break
            except WorkerCrashed:
                self._restart(worker, reason="crash")
                if worker.unreachable:
                    break
                try:
                    out = self._ingest(worker, cycle, sub, snapshot, deadline)
                except (UnreachableShardError, TransportTimeout):
                    self._mark_unreachable(worker)
                    break
            except StorageDegradedError:
                # The shard's volume is still full: the cycle was
                # refused before any byte landed, so leave it queued and
                # keep serving committed verdicts.  The backlog is the
                # same partition buffer an unreachable shard keeps (no
                # cap applies); the next cycle re-offers its head, which
                # probes the volume again, and the health plane reports
                # the shard unready until that probe succeeds.
                break
            except TransientStorageError:
                # Retries under the WAL's policy were already exhausted;
                # a restart-from-checkpoint+WAL is the safe escalation
                # (the refused cycle stays pending and is re-fed).
                self._restart(worker, reason="storage")
                if worker.unreachable:
                    break
                try:
                    out = self._ingest(worker, cycle, sub, snapshot, deadline)
                except (UnreachableShardError, TransportTimeout):
                    self._mark_unreachable(worker)
                    break
            worker.pending.popleft()
            worker.last_cycle = cycle
            worker.beats += 1
            self.watermarks.observe(worker.name, cycle)
            if out is not None:
                report = out
        return report

    def _restart(self, worker: ShardWorker, reason: str) -> None:
        """Heal one shard: fence the old incarnation, recover a new one."""
        old = worker.monitor
        worker.monitor = None
        if old is not None:
            try:
                old.close()
            except Exception:  # noqa: BLE001 - a dead worker may not close
                pass
        # Bump the ownership epoch *before* building the successor: any
        # stale reference to the previous wrapper is fenced from here on.
        self._fence[worker.name] += 1
        worker.monitor = self._build_worker(worker)
        worker.restarts += 1
        self.restarts_total += 1
        self._persist()
        if self.metrics is not None:
            self.metrics.counter(
                "fdeta_fleet_restarts_total",
                "Elastic-fleet worker restarts, by failure reason.",
                labels=("reason",),
            ).inc(reason=reason)
        if self.events is not None:
            self.events.warning(
                "fleet_worker_restarted",
                shard=worker.name,
                reason=reason,
                epoch=self._fence[worker.name],
                recovered_cycle=worker.monitor.service.cycles_ingested,
                cycle=self._cycle,
            )

    # ------------------------------------------------------------------
    # Elasticity: add shards via the handoff protocol
    # ------------------------------------------------------------------

    def _roster_all(self) -> tuple[str, ...]:
        return tuple(
            sorted(
                cid
                for worker in self._workers.values()
                for cid in worker.consumers
            )
        )

    def add_shard(
        self, name: str | None = None, on_phase: PhaseHook | None = None
    ) -> str:
        """Grow the fleet by one shard, migrating its ring arc to it.

        Returns the new shard's name.  ``on_phase`` is the chaos hook:
        it is invoked at the entry of every handoff phase (see
        :data:`~repro.scaleout.handoff.HANDOFF_PHASES`); raising from it
        simulates a coordinator crash at that point.  After such a
        crash the fleet object is unusable — close it and reopen the
        ``base_dir``, which rolls the handoff back (crash before
        commit) or forward (after).
        """
        if name is None:
            name = f"shard-{self._next_index:04d}"
            self._next_index += 1
        elif name in self._workers:
            raise ConfigurationError(f"shard {name!r} already exists")
        roster = self._roster_all()
        if len(roster) < len(self._workers) + 1:
            raise ConfigurationError(
                f"cannot grow to {len(self._workers) + 1} shards with "
                f"only {len(roster)} consumers"
            )
        self._trace_handoff_start("add", shard=name)
        try:
            self._quiesce(on_phase)
            old_assignment = {
                shard: worker.consumers
                for shard, worker in self._workers.items()
            }
            self._ring.add_shard(name)
            new_assignment = balanced_assignments(self._ring, roster)
            self._rebalance(
                old_assignment,
                new_assignment,
                added=(name,),
                on_phase=on_phase,
            )
        finally:
            self._trace_handoff_end()
        return name

    # -- handoff tracing -------------------------------------------------

    def _trace_handoff_start(self, kind: str, **fields: object) -> None:
        if self.tracer is None:
            return
        self._handoff_span = self.tracer.start_span(
            "shard_handoff", kind=kind, **fields
        )

    def _trace_handoff_end(self) -> None:
        if self.tracer is None or self._handoff_span is None:
            return
        if self._phase_span is not None:
            self.tracer.end_span(self._phase_span)
            self._phase_span = None
        self.tracer.end_span(self._handoff_span)
        self._handoff_span = None

    def _handoff_trace_payload(self) -> tuple[tuple[str, str], ...] | None:
        """The active handoff span's context, manifest-serializable."""
        if self._handoff_span is None:
            return None
        context = self._handoff_span.context
        if context is None:
            return None
        return tuple(sorted(context.to_dict().items()))

    def _install_context(self):
        """Parent context for per-shard install work (or ``None``)."""
        if self._phase_span is None:
            return None
        return self._phase_span.context

    def _phase(self, on_phase: PhaseHook | None, phase: str) -> None:
        # Trace before invoking the chaos hook: a simulated coordinator
        # crash still leaves the attempted phase on the trace.
        if self.tracer is not None and self._handoff_span is not None:
            if self._phase_span is not None:
                self.tracer.end_span(self._phase_span)
            self._phase_span = self.tracer.start_span(
                phase, cycle=self._cycle
            )
        if on_phase is not None:
            on_phase(phase)

    def _quiesce(self, on_phase: PhaseHook | None = None) -> None:
        """Heal every worker and drain every queue to the same cycle."""
        self._phase(on_phase, "quiesce")
        for name in sorted(self._workers):
            worker = self._workers[name]
            if worker.hung:
                worker.hung = False
                self._restart(worker, reason="hang")
            self._drain(worker)
            if worker.unreachable:
                # A handoff moves consumer state between shards; doing
                # that across a partition would fork ownership.  Refuse
                # and let the operator retry once the link heals.
                raise SupervisorError(
                    f"shard {name!r} is unreachable (network partition); "
                    "cannot rebalance across a partition"
                )
            assert worker.monitor is not None
            if worker.monitor.service.cycles_ingested != self._cycle:
                raise SupervisorError(
                    f"shard {name!r} failed to quiesce at cycle "
                    f"{self._cycle} (sits at "
                    f"{worker.monitor.service.cycles_ingested})"
                )
        self._update_gauges()

    def _rebalance(
        self,
        old_assignment: Mapping[str, tuple[str, ...]],
        new_assignment: Mapping[str, tuple[str, ...]],
        added: tuple[str, ...],
        on_phase: PhaseHook | None,
    ) -> None:
        new_owner = {
            cid: shard
            for shard, members in new_assignment.items()
            for cid in members
        }
        moves = tuple(
            (cid, src, new_owner[cid])
            for src, members in sorted(old_assignment.items())
            for cid in members
            if new_owner[cid] != src
        )
        # --- snapshot: every shard durable & self-contained at _cycle
        self._phase(on_phase, "snapshot")
        for name in sorted(self._workers):
            worker = self._workers[name]
            assert worker.monitor is not None
            self._checkpoint(worker)
        # --- commit: bump epochs, persist new topology + pending record
        self._phase(on_phase, "commit")
        record = HandoffRecord(
            moves=moves,
            added=added,
            cycle=self._cycle,
            trace=self._handoff_trace_payload(),
        )
        touched = set(added)
        for cid, src, dst in moves:
            touched.add(src)
            touched.add(dst)
        for name in added:
            wal_dir, checkpoint_path = self._shard_paths(name)
            self._fence.setdefault(name, 0)
            self._workers[name] = ShardWorker(
                name=name,
                wal_dir=wal_dir,
                checkpoint_path=checkpoint_path,
                consumers=(),
            )
        for name in touched:
            self._fence[name] = self._fence.get(name, 0) + 1
        for name, members in new_assignment.items():
            self._workers[name].consumers = tuple(members)
        # Re-wrap the live workers of every touched active shard at the
        # new epoch; the previous wrappers become stale writers.  The
        # endpoint rebinding also re-acquires each lease at the bumped
        # epoch, so wire-level ownership tracks the fence map.
        for name in sorted(touched):
            worker = self._workers.get(name)
            if worker is not None and worker.monitor is not None:
                worker.monitor = FencedMonitor(
                    worker.monitor.inner,
                    name,
                    self._fence[name],
                    self._fence,
                )
                self._bind_endpoint(worker, worker.monitor)
        self._persist(pending=record)
        # --- install + finalize (shared with crash roll-forward)
        self._apply_record(record, on_phase)
        self.handoffs_total += 1
        if self.metrics is not None:
            self.metrics.counter(
                "fdeta_fleet_handoffs_total",
                "Completed shard handoffs, by kind.",
                labels=("kind",),
            ).inc(kind="add")
            self.metrics.counter(
                "fdeta_fleet_moved_consumers_total",
                "Consumers migrated between shards by handoffs.",
            ).inc(len(moves))
        if self.events is not None:
            self.events.info(
                "fleet_rebalanced",
                added=list(added),
                moved=len(moves),
                cycle=self._cycle,
                shards=len(self._workers),
            )
        self._update_gauges()

    def _apply_record(
        self, record: HandoffRecord, on_phase: PhaseHook | None = None
    ) -> None:
        """Install a committed handoff record (live path and recovery).

        Idempotent: a mover already present on its destination is
        skipped, a mover already released from its source is not
        released again — so a crash anywhere inside install resumes
        cleanly when the record is re-applied.
        """
        self._phase(on_phase, "install")
        # Build workers for added shards that do not exist yet (live
        # path) or have no durable state (crash before their first
        # checkpoint): a virgin service whose clock is aligned to the
        # quiesced fleet.
        donor_clock = None
        for name in record.added:
            worker = self._workers.get(name)
            if worker is None:
                wal_dir, checkpoint_path = self._shard_paths(name)
                worker = ShardWorker(
                    name=name,
                    wal_dir=wal_dir,
                    checkpoint_path=checkpoint_path,
                    consumers=(),
                )
                self._workers[name] = worker
            if worker.monitor is None:
                if os.path.exists(worker.checkpoint_path):
                    worker.monitor = self._build_worker(worker)
                else:
                    if donor_clock is None:
                        donor_clock = self._donor_clock(record)
                    service = self._fresh_service(None)
                    service.align_clock(donor_clock)
                    worker.monitor = self._wrap(service, worker)
            worker.last_cycle = record.cycle - 1
        sources: dict[str, "TheftMonitoringService"] = {}
        for name, worker in self._workers.items():
            assert worker.monitor is not None
            sources[name] = worker.monitor.service
        # Adopt movers on their destinations (skip already-installed).
        # With tracing on, the extract/adopt pair is recorded on the
        # *shard services'* own tracers, parented to the fleet's
        # install-phase span — the cross-tracer links stitch_traces
        # follows to rebuild one handoff tree across monitors.
        install_ctx = self._install_context()
        for cid, src, dst in record.moves:
            dst_service = sources[dst]
            if cid in dst_service.roster:
                continue
            src_service = sources[src]
            if install_ctx is not None and src_service.tracer is not None:
                with src_service.tracer.span(
                    "extract_consumer",
                    parent=install_ctx,
                    consumer=cid,
                    shard=src,
                ):
                    packet = self._route_extract(
                        src, src_service, cid, record.cycle
                    )
            else:
                packet = self._route_extract(src, src_service, cid, record.cycle)
            if install_ctx is not None and dst_service.tracer is not None:
                with dst_service.tracer.span(
                    "adopt_consumer",
                    parent=install_ctx,
                    consumer=cid,
                    shard=dst,
                ):
                    self._route_adopt(dst, dst_service, cid, packet, record.cycle)
            else:
                self._route_adopt(dst, dst_service, cid, packet, record.cycle)
        # Destinations first: after this point the movers' new homes are
        # durable, so a crash resolves every mover to its destination.
        destinations = sorted({dst for _, _, dst in record.moves})
        for name in destinations:
            worker = self._workers.get(name)
            if worker is not None and worker.monitor is not None:
                self._checkpoint(worker)
        # Release movers from their sources, then make that durable too.
        for cid, src, dst in record.moves:
            src_service = sources[src]
            if cid in src_service.roster:
                src_service.release_consumer(cid)
        for name in sorted({src for _, src, _ in record.moves}):
            worker = self._workers.get(name)
            if worker is not None and worker.monitor is not None:
                self._checkpoint(worker)
        self._phase(on_phase, "finalize")
        self._persist(pending=None)

    def _route_extract(
        self,
        shard: str,
        service: "TheftMonitoringService",
        cid: str,
        cycle: int,
    ):
        """Extract a mover's state packet, over the wire when possible.

        A source with no live endpoint is called directly.  Active
        workers go through the transport, so the migration inherits
        duplicate absorption: a retried extract returns the cached
        packet instead of extracting twice.
        """
        worker = self._workers.get(shard)
        if (
            worker is not None
            and worker.monitor is not None
            and worker.monitor.service is service
            and self.transport.endpoint_or_none(shard) is not None
        ):
            reply = self._client(shard).call(
                "extract",
                cid,
                seq=cycle,
                lease_epoch=self._fence.get(shard, 0),
                request_id=f"{shard}:extract:{cid}@{cycle}",
            )
            return reply.value
        return service.extract_consumer(cid)

    def _route_adopt(
        self,
        shard: str,
        service: "TheftMonitoringService",
        cid: str,
        packet,
        cycle: int,
    ) -> None:
        """Adopt a mover on its destination, over the wire when possible."""
        worker = self._workers.get(shard)
        if (
            worker is not None
            and worker.monitor is not None
            and worker.monitor.service is service
            and self.transport.endpoint_or_none(shard) is not None
        ):
            self._client(shard).call(
                "adopt",
                {"consumer": cid, "packet": packet},
                seq=cycle,
                lease_epoch=self._fence.get(shard, 0),
                request_id=f"{shard}:adopt:{cid}@{cycle}",
            )
            return
        service.adopt_consumer(cid, packet)

    def _donor_clock(self, record: HandoffRecord) -> dict:
        """Clock for a virgin shard, taken from a quiesced move source."""
        for _, src, _ in record.moves:
            worker = self._workers.get(src)
            if worker is not None and worker.monitor is not None:
                return worker.monitor.service.clock_state()
        raise SupervisorError(
            "handoff record has no recoverable source shard to align a "
            "new shard's clock from"
        )

    def _roll_forward(self, record: HandoffRecord) -> None:
        """Complete a handoff interrupted by a crash (cold start)."""
        if self.events is not None:
            self.events.warning(
                "fleet_handoff_roll_forward",
                moves=len(record.moves),
                added=list(record.added),
                cycle=record.cycle,
            )
        if self.tracer is not None:
            # Parent the recovery to the interrupted handoff's trace
            # (carried in the manifest), so one stitched tree covers
            # both the crashed attempt and its completion.
            self._handoff_span = self.tracer.start_span(
                "handoff_roll_forward",
                parent=record.trace_context(),
                moves=len(record.moves),
                cycle=record.cycle,
            )
        try:
            self._apply_record(record, on_phase=None)
        finally:
            self._trace_handoff_end()

    # ------------------------------------------------------------------
    # Fault-injection hooks (chaos tests)
    # ------------------------------------------------------------------

    def kill(self, name: str) -> None:
        """Hard-kill one shard: its in-memory state is gone."""
        worker = self._worker(name)
        monitor = worker.monitor
        worker.monitor = None
        worker.hung = False
        if monitor is not None:
            try:
                monitor.close()
            except Exception:  # noqa: BLE001 - dying worker may not close
                pass
        self._update_gauges()

    def hang(self, name: str) -> None:
        """Wedge one shard: it stops draining its pending queue."""
        self._worker(name).hung = True
        self._update_gauges()

    # ------------------------------------------------------------------
    # Partition recovery
    # ------------------------------------------------------------------

    def drain_backlog(self) -> int:
        """Probe every unreachable shard and drain all backlogs now.

        The per-cycle dispatch already probes and drains lazily; call
        this after healing a partition (or before reading final merged
        verdicts) to force the replay immediately instead of waiting
        for the next cycle.  Returns the number of buffered cycles
        drained across the fleet.
        """
        if self._closed:
            raise SupervisorError("fleet is closed")
        drained = 0
        for name in sorted(self._workers):
            worker = self._workers[name]
            before = len(worker.pending)
            self._drain(worker)
            drained += before - len(worker.pending)
        self._update_gauges()
        return drained

    def shard_lease(self, name: str):
        """The wire-side :class:`~repro.transport.ShardLease` for one
        shard (``None`` when its endpoint holds no lease)."""
        endpoint = self.transport.endpoint_or_none(name)
        return None if endpoint is None else endpoint.lease

    # ------------------------------------------------------------------
    # Queries / merged plane
    # ------------------------------------------------------------------

    def _worker(self, name: str) -> ShardWorker:
        try:
            return self._workers[name]
        except KeyError:
            raise SupervisorError(f"no shard {name!r}") from None

    def workers(self) -> tuple[ShardWorker, ...]:
        return tuple(
            self._workers[name] for name in sorted(self._workers)
        )

    def epoch(self, name: str) -> int:
        """The current ownership epoch of one active shard."""
        self._worker(name)
        return self._fence[name]

    def service(self, name: str) -> "TheftMonitoringService":
        worker = self._worker(name)
        if worker.monitor is None:
            raise SupervisorError(f"shard {name!r} is dead")
        return worker.monitor.service

    def services(self) -> dict[str, "TheftMonitoringService"]:
        return {
            name: self.service(name)
            for name in sorted(self._workers)
            if self._workers[name].monitor is not None
        }

    def weekly_reports(self) -> dict[str, list["MonitoringReport"]]:
        """Per-shard report streams."""
        return {
            name: list(service.reports)
            for name, service in self.services().items()
        }

    def merged_reports(self) -> list[plane.FleetWeekReport]:
        """Fleet-wide weekly reports (see :mod:`repro.scaleout.plane`)."""
        return plane.merge_weekly_reports(
            self.weekly_reports(), roster=self._roster_all()
        )

    def merged_signature(self) -> tuple:
        """Byte-comparable signature of the merged weekly history."""
        return plane.merged_signature(self.weekly_reports())

    def merged_metrics(self) -> "MetricsRegistry":
        """Fleet-wide metrics registry (every shard's, folded)."""
        return plane.merge_metrics(
            [service.metrics for service in self.services().values()]
        )

    def reading_series(self) -> dict[str, np.ndarray]:
        """Union of every active shard's reading store, by consumer
        (each series a copy)."""
        out: dict[str, np.ndarray] = {}
        for service in self.services().values():
            out.update(service.store.items())
        return out

    def tracers(self) -> list:
        """Every tracer with fleet spans: the fleet's own plus each
        shard service's — the input to
        :func:`~repro.observability.tracing.stitch_traces`."""
        out = []
        if self.tracer is not None:
            out.append(self.tracer)
        for service in self.services().values():
            if service.tracer is not None:
                out.append(service.tracer)
        return out

    def health_plane(self, ready_lag_cycles: int | None = None):
        """A :class:`~repro.observability.ops.FleetHealthPlane` over
        this fleet (fresh each call; the plane itself is stateless)."""
        from repro.observability.ops.health import FleetHealthPlane

        return FleetHealthPlane(self, ready_lag_cycles=ready_lag_cycles)

    def health_report(self, ready_lag_cycles: int | None = None):
        """One-shot fleet :class:`~repro.observability.ops.HealthReport`
        (also refreshes the health gauges on ``metrics``)."""
        return self.health_plane(ready_lag_cycles).report()

    def observability_registry(self) -> "MetricsRegistry":
        """Merged shard metrics plus the fleet's own gauges."""
        return plane.merge_observability(
            [service.metrics for service in self.services().values()],
            self.metrics,
        )

    def observe_slo(self) -> None:
        """Record one SLO compliance point (no-op without a tracker).

        Reads the merged observability registry, so objectives can mix
        per-shard series (cycle latency, reading outcomes) with
        fleet-level ones (shard lag).  Burn gauges are mirrored onto
        the fleet registry when one is attached.
        """
        if self.slo is None:
            return
        self.slo.observe(self.observability_registry())
        if self.metrics is not None:
            self.slo.export(self.metrics)

    def slo_report(self):
        """The tracker's current :class:`~repro.observability.ops.SLOReport`."""
        if self.slo is None:
            raise ConfigurationError("fleet has no SLO tracker attached")
        return self.slo.report()

    def _update_gauges(self) -> None:
        if self.metrics is None:
            return
        gauge = self.metrics.gauge(
            "fdeta_fleet_workers",
            "Elastic-fleet shard workers in each health state.",
            labels=("state",),
        )
        counts = {"running": 0, "hung": 0, "dead": 0, "unreachable": 0}
        for worker in self._workers.values():
            if worker.monitor is None:
                counts["dead"] += 1
            elif worker.unreachable:
                counts["unreachable"] += 1
            elif worker.hung:
                counts["hung"] += 1
            else:
                counts["running"] += 1
        for state, count in counts.items():
            gauge.set(count, state=state)
        lag = self.metrics.gauge(
            "fdeta_fleet_shard_lag_cycles",
            "How many cycles each shard trails the dispatch frontier.",
            labels=("shard",),
        )
        for name in self._workers:
            lag.set(float(self.shard_lag(name)), shard=name)

    def close(self) -> None:
        """Shut the fleet down; idempotent and safe on partial builds."""
        if self._closed:
            return
        self._closed = True
        for worker in self._workers.values():
            monitor, worker.monitor = worker.monitor, None
            if monitor is not None:
                try:
                    monitor.close()
                except Exception:  # noqa: BLE001 - best-effort teardown
                    pass

    def __enter__(self) -> "ElasticFleet":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
