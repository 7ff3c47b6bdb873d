"""Fleet health plane: per-shard liveness/readiness rollups.

The elastic fleet already exposes the raw signals — per-shard
watermarks, pending queues, restart counters, ownership epochs — but an
operator paging through gauges cannot answer *"is the fleet healthy and
which shard is the problem?"* in one look.  :class:`FleetHealthPlane`
aggregates those signals into a :class:`HealthReport`:

* **liveness** — the shard has a running monitor (a killed shard is not
  live until the next drain heals it);
* **readiness** — the shard is live, not hung, and its watermark lag is
  within ``ready_lag_cycles`` of the fleet frontier (a live-but-lagging
  shard serves stale verdicts and is therefore unready);
* fleet rollups — state counts, the low watermark, total backlog and
  WAL bytes — with everything exported both as JSON and as gauges on
  the fleet's :class:`~repro.observability.metrics.MetricsRegistry`.

The verdict model follows the classic orchestration split: liveness
asks "should this worker be replaced?", readiness asks "should traffic
trust this worker's output right now?".
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.scaleout.fleet import ElasticFleet

__all__ = ["FleetHealthPlane", "HealthReport", "ShardHealth"]


@dataclass(frozen=True)
class ShardHealth:
    """One shard's health verdict and the evidence behind it."""

    name: str
    state: str  # "running" | "hung" | "dead" | "unreachable"
    live: bool
    ready: bool
    lag_cycles: int
    pending_cycles: int
    wal_bytes: int
    restarts: int
    epoch: int
    last_cycle: int
    consumers: int
    reasons: tuple[str, ...]
    #: True while the shard's durable monitor is in storage-degraded
    #: read-only mode (disk full: serving verdicts, refusing ingests).
    storage_degraded: bool = False
    #: True while the shard's transport link is severed (suspected
    #: network partition).  Distinct from hung: the worker may be
    #: perfectly healthy on the far side, so it is *not* restarted;
    #: cycles buffer for replay and reconnection probes heal it.
    unreachable: bool = False
    #: The coordinator currently holding this shard's ownership lease
    #: over the wire (``None`` when the endpoint holds no lease, e.g.
    #: a plain in-process fleet that never leased).
    lease_holder: str | None = None
    #: Active model version from the shard's integrity registry
    #: (``None`` outside integrity mode or before the first promotion).
    model_version: int | None = None
    #: Last model promotion/rollback/rejection on this shard, rendered
    #: as ``"<kind> v<version> @w<week>"`` for the status dashboard.
    model_event: str | None = None


@dataclass(frozen=True)
class HealthReport:
    """Point-in-time fleet health: per-shard verdicts plus rollups."""

    cycle: int
    frontier: int
    low_watermark: int
    shards: tuple[ShardHealth, ...]
    fleet_live: bool
    fleet_ready: bool
    states: dict
    restarts_total: int
    handoffs_total: int
    backlog_cycles: int
    wal_bytes: int

    def shard(self, name: str) -> ShardHealth:
        for shard in self.shards:
            if shard.name == name:
                return shard
        raise KeyError(f"no shard {name!r} in this report")

    def to_dict(self) -> dict:
        payload = asdict(self)
        payload["shards"] = [asdict(s) for s in self.shards]
        for shard in payload["shards"]:
            shard["reasons"] = list(shard["reasons"])
        return payload

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def write(self, path: str | os.PathLike) -> None:
        from repro.storage.io import atomic_write_json

        atomic_write_json(path, self.to_dict(), site="export.health")


def _model_evidence(monitor) -> tuple[int | None, str | None]:
    """Active model version + last lifecycle event from a shard monitor.

    Walks ``monitor.service.model_registry`` defensively: the monitor
    may be dead, the shard may run outside integrity mode, or the
    registry may predate any promotion — all of which yield
    ``(None, None)`` rather than an exception in a health probe.
    """
    service = getattr(monitor, "service", None)
    registry = getattr(service, "model_registry", None)
    if registry is None:
        return None, None
    event = registry.last_event
    rendered = (
        f"{event.kind} v{event.version} @w{event.week}"
        if event is not None
        else None
    )
    return registry.active_version, rendered


def _wal_bytes(wal_dir: str) -> int:
    """Total on-disk WAL segment bytes for one shard (0 if unreadable)."""
    # Imported lazily: repro.durability sits *above* observability in
    # the import graph (its modules import repro.observability.metrics),
    # so a module-level import here would close a cycle whenever the
    # observability package loads first.
    from repro.durability.wal import list_segments

    total = 0
    try:
        for path in list_segments(wal_dir):
            total += os.path.getsize(path)
    except OSError:
        return 0
    return total


class FleetHealthPlane:
    """Derives :class:`HealthReport` snapshots from a live fleet.

    Parameters
    ----------
    fleet:
        The :class:`~repro.scaleout.fleet.ElasticFleet` to introspect.
    ready_lag_cycles:
        Maximum watermark lag (cycles behind the fleet frontier) a
        shard may carry and still be *ready*.  Defaults to the fleet's
        ``hang_tolerance_cycles`` — beyond that the fleet itself would
        declare the shard hung.
    """

    def __init__(
        self,
        fleet: "ElasticFleet",
        ready_lag_cycles: int | None = None,
    ) -> None:
        self.fleet = fleet
        self.ready_lag_cycles = (
            int(ready_lag_cycles)
            if ready_lag_cycles is not None
            else fleet.hang_tolerance_cycles
        )

    def _shard_health(self, worker) -> ShardHealth:
        fleet = self.fleet
        lag = fleet.shard_lag(worker.name)
        reasons: list[str] = []
        unreachable = bool(getattr(worker, "unreachable", False))
        if worker.monitor is None:
            state = "dead"
            reasons.append("no running monitor")
        elif unreachable:
            state = "unreachable"
            reasons.append(
                "shard unreachable over the transport (suspected "
                f"network partition); {len(worker.pending)} cycle(s) "
                "buffered for replay"
            )
        elif worker.hung:
            state = "hung"
            reasons.append("worker is wedged")
        else:
            state = "running"
        lease = (
            fleet.shard_lease(worker.name)
            if hasattr(fleet, "shard_lease")
            else None
        )
        lease_holder = lease.holder if lease is not None else None
        if (
            lease_holder is not None
            and getattr(fleet, "holder", None) is not None
            and lease_holder != fleet.holder
        ):
            reasons.append(
                f"shard is leased out to {lease_holder!r} (this "
                "coordinator no longer owns it)"
            )
        if lag > self.ready_lag_cycles:
            reasons.append(
                f"lag {lag} cycles exceeds readiness bound "
                f"{self.ready_lag_cycles}"
            )
        degraded = bool(getattr(worker.monitor, "read_only", False))
        if degraded:
            reasons.append(
                "storage degraded: disk-full read-only mode "
                "(serving committed verdicts, refusing new readings)"
            )
        live = worker.monitor is not None
        ready = (
            state == "running"
            and lag <= self.ready_lag_cycles
            and not degraded
        )
        model_version, model_event = _model_evidence(worker.monitor)
        return ShardHealth(
            name=worker.name,
            state=state,
            live=live,
            ready=ready,
            lag_cycles=lag,
            pending_cycles=len(worker.pending),
            wal_bytes=_wal_bytes(worker.wal_dir),
            restarts=worker.restarts,
            epoch=fleet.epoch(worker.name),
            last_cycle=worker.last_cycle,
            consumers=len(worker.consumers),
            reasons=tuple(reasons),
            storage_degraded=degraded,
            unreachable=unreachable,
            lease_holder=lease_holder,
            model_version=model_version,
            model_event=model_event,
        )

    def report(self) -> HealthReport:
        """Snapshot fleet health now; also refreshes health gauges."""
        fleet = self.fleet
        shards = tuple(
            self._shard_health(worker) for worker in fleet.workers()
        )
        states = {"running": 0, "hung": 0, "dead": 0, "unreachable": 0}
        for shard in shards:
            states[shard.state] += 1
        report = HealthReport(
            cycle=fleet.cycle,
            frontier=fleet.frontier,
            low_watermark=fleet.low_watermark,
            shards=shards,
            fleet_live=all(s.live for s in shards),
            fleet_ready=all(s.ready for s in shards),
            states=states,
            restarts_total=fleet.restarts_total,
            handoffs_total=fleet.handoffs_total,
            backlog_cycles=sum(s.pending_cycles for s in shards),
            wal_bytes=sum(s.wal_bytes for s in shards),
        )
        self._export(report)
        return report

    def _export(self, report: HealthReport) -> None:
        metrics = self.fleet.metrics
        if metrics is None:
            return
        ready = metrics.gauge(
            "fdeta_fleet_shard_ready",
            "1 when the shard is ready (live, not hung, lag in bound).",
            labels=("shard",),
        )
        backlog = metrics.gauge(
            "fdeta_fleet_shard_backlog_cycles",
            "Cycles queued but not yet drained, per shard.",
            labels=("shard",),
        )
        wal = metrics.gauge(
            "fdeta_fleet_shard_wal_bytes",
            "On-disk WAL segment bytes, per shard.",
            labels=("shard",),
        )
        degraded = metrics.gauge(
            "fdeta_fleet_shard_storage_degraded",
            "1 while the shard is in disk-full read-only mode.",
            labels=("shard",),
        )
        unreachable = metrics.gauge(
            "fdeta_fleet_shard_unreachable",
            "1 while the shard's transport link is severed.",
            labels=("shard",),
        )
        model = metrics.gauge(
            "fdeta_fleet_shard_model_version",
            "Active integrity-registry model version per shard "
            "(0 outside integrity mode or before the first promotion).",
            labels=("shard",),
        )
        for shard in report.shards:
            ready.set(1.0 if shard.ready else 0.0, shard=shard.name)
            backlog.set(float(shard.pending_cycles), shard=shard.name)
            wal.set(float(shard.wal_bytes), shard=shard.name)
            degraded.set(
                1.0 if shard.storage_degraded else 0.0, shard=shard.name
            )
            unreachable.set(
                1.0 if shard.unreachable else 0.0, shard=shard.name
            )
            model.set(float(shard.model_version or 0), shard=shard.name)
        metrics.gauge(
            "fdeta_fleet_ready",
            "1 when every shard in the fleet is ready.",
        ).set(1.0 if report.fleet_ready else 0.0)
        metrics.gauge(
            "fdeta_fleet_low_watermark",
            "Newest cycle every shard has drained.",
        ).set(float(report.low_watermark))
        metrics.gauge(
            "fdeta_fleet_frontier",
            "Newest cycle any shard has drained.",
        ).set(float(report.frontier))
