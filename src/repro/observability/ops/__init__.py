"""Fleet operations plane: health, SLOs, profiling, status dashboards.

The reliability spine (PRs 1–6) made the pipeline survive crashes,
storms, reordering, and elastic rebalancing; this subpackage makes it
*operable* — the layer an on-call engineer actually reads:

* :mod:`~repro.observability.ops.health` —
  :class:`~repro.observability.ops.health.FleetHealthPlane` rolls
  per-shard watermark lag, backlog, WAL bytes, restarts, and epochs
  into liveness/readiness verdicts (:class:`HealthReport`);
* :mod:`~repro.observability.ops.slo` —
  :class:`~repro.observability.ops.slo.SLOTracker` computes
  multi-window error-budget burn rates for configurable objectives
  (cycle-latency p99, ingest availability, verdict staleness);
* :mod:`~repro.observability.ops.profiler` —
  :class:`~repro.observability.ops.profiler.StageProfiler`, the exact
  per-stage self/cumulative-time profile fed by the service's one
  stage timer;
* :mod:`~repro.observability.ops.status` — the plain-text operator
  dashboard behind ``repro-monitor status``.
"""

from repro.observability.ops.health import (
    FleetHealthPlane,
    HealthReport,
    ShardHealth,
)
from repro.observability.ops.profiler import StageProfiler
from repro.observability.ops.slo import (
    SLObjective,
    SLOReport,
    SLOTracker,
    default_fleet_objectives,
)
from repro.observability.ops.status import render_status

__all__ = [
    "FleetHealthPlane",
    "HealthReport",
    "SLObjective",
    "SLOReport",
    "SLOTracker",
    "ShardHealth",
    "StageProfiler",
    "default_fleet_objectives",
    "render_status",
]
