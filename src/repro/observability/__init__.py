"""Observability for the detection pipeline.

The paper's claims are operational — theft mitigated per week,
false-positive investigation cost — so a running F-DETA deployment needs
telemetry as much as it needs detectors.  This subpackage provides the
three classic signals, dependency-free:

* :mod:`repro.observability.metrics` — labelled counters, gauges, and
  fixed-bucket histograms in a :class:`MetricsRegistry`, with Prometheus
  text exposition and JSON snapshot export, cross-process snapshot
  merging, and pickle round-tripping (counters survive
  checkpoint/resume);
* :mod:`repro.observability.events` — a leveled, structured JSONL event
  logger with a two-way stdlib-``logging`` bridge;
* :mod:`repro.observability.tracing` — nested ``perf_counter`` spans
  exportable as a trace tree;
* :mod:`repro.observability.bench` — appendable ``BENCH_<name>.json``
  performance records for the benchmark harness, stamped with git SHA
  and schema version, plus :func:`bench_diff` regression gating;
* :mod:`repro.observability.ops` — the fleet operations plane:
  per-shard health/readiness rollups, SLO error-budget burn rates, the
  exact per-stage :class:`~repro.observability.ops.StageProfiler`,
  and the ``repro-monitor status`` text dashboard.

Instrumented components: :class:`~repro.core.online.TheftMonitoringService`
(cycle latency, weekly reports, alerts, coverage, breaker transitions),
:class:`~repro.quarantine.firewall.ReadingFirewall` (quarantined
readings by reason),
:class:`~repro.detectors.base.WeeklyDetector` (fit/score latency per
detector), and the serial/parallel evaluation runners (per-worker
registry snapshots merged across the process boundary).
"""

from repro.observability.bench import (
    BenchTimer,
    bench_diff,
    write_bench_record,
)
from repro.observability.events import EventLogger
from repro.observability.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    FRACTION_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    global_registry,
    parse_prometheus,
    set_global_registry,
    use_registry,
)
from repro.observability.tracing import (
    Span,
    TraceContext,
    Tracer,
    stitch_traces,
    trace,
)

# The ops plane reaches back into durability (WAL segment sizes), so it
# must load after the core submodules above: re-entrant imports of
# repro.observability.metrics/events from that chain then resolve to
# already-initialised modules.
from repro.observability.ops import (  # noqa: E402
    FleetHealthPlane,
    HealthReport,
    SLObjective,
    SLOReport,
    SLOTracker,
    ShardHealth,
    StageProfiler,
    default_fleet_objectives,
    render_status,
)

__all__ = [
    "BenchTimer",
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "EventLogger",
    "FRACTION_BUCKETS",
    "FleetHealthPlane",
    "Gauge",
    "HealthReport",
    "Histogram",
    "MetricsRegistry",
    "SLObjective",
    "SLOReport",
    "SLOTracker",
    "ShardHealth",
    "Span",
    "StageProfiler",
    "TraceContext",
    "Tracer",
    "bench_diff",
    "default_fleet_objectives",
    "global_registry",
    "parse_prometheus",
    "render_status",
    "set_global_registry",
    "stitch_traces",
    "trace",
    "use_registry",
    "write_bench_record",
]
