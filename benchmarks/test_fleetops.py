"""Benchmarks the ops plane's hot-path cost: profiler overhead.

Every stage window is timed into ``fdeta_stage_seconds`` whether or not
a :class:`~repro.observability.ops.StageProfiler` is attached; the
profiler is one more subscriber of that one clock read, so its
bookkeeping IS the ops plane's hot-path tax.  This bench runs the
scrambled event-time pipeline bare and profiled in alternation,
compares medians (interleaving cancels thermal/cache drift), and gates
the overhead at 5%.  Records land in
``BENCH_fleetops.json``.
"""

from __future__ import annotations

import statistics

import numpy as np

from repro.core.kld import KLDDetector
from repro.core.online import TheftMonitoringService
from repro.eventtime import EventTimeConfig, EventTimeIngestor
from repro.loadcontrol.deadline import STAGE_SECONDS_BUCKETS
from repro.metering.scramble import ScramblingChannel
from repro.observability.ops import StageProfiler
from repro.quarantine import FirewallPolicy, ReadingFirewall
from repro.resilience import ResilienceConfig
from repro.timeseries.seasonal import SLOTS_PER_WEEK

from benchmarks.conftest import BENCH_CONSUMERS, BenchTimer, record_bench

_WEEKS = 3
_LATENESS = 16
_REPS = 7
_MAX_OVERHEAD = 0.05


def _population(n=BENCH_CONSUMERS):
    return tuple(f"c{i:04d}" for i in range(n))


def _service(ids):
    return TheftMonitoringService(
        detector_factory=lambda: KLDDetector(significance=0.05),
        min_training_weeks=2,
        retrain_every_weeks=4,
        resilience=ResilienceConfig(failure_threshold=10_000),
        population=ids,
        firewall=ReadingFirewall(FirewallPolicy()),
        eventtime=EventTimeConfig(lateness_slots=_LATENESS, grace_weeks=1),
    )


def _scrambled_batches(ids, n_slots):
    channel = ScramblingChannel(
        median_delay_slots=2.0,
        max_delay_slots=_LATENESS + SLOTS_PER_WEEK,
        duplicate_rate=0.02,
    )
    rng = np.random.default_rng(2016)
    batches = []
    for t in range(n_slots):
        values = np.random.default_rng((2016, t)).gamma(
            2.0, 0.5, size=len(ids)
        )
        channel.push(
            t, {cid: float(values[i]) for i, cid in enumerate(ids)}, rng
        )
        batches.append(channel.pop_due(t))
    batches.append(channel.drain())
    return batches


def _run_pipeline(ids, batches, profiler=None):
    service = _service(ids)
    service.profiler = profiler
    ingestor = EventTimeIngestor(service)
    with BenchTimer() as timer:
        for batch in batches:
            ingestor.deliver(batch)
        ingestor.finish()
    assert service.weeks_completed == _WEEKS
    return timer.elapsed, service


def test_profiler_overhead_under_bound():
    """Profiled event-time ingest stays within 5% of the bare run."""
    ids = _population()
    n_slots = _WEEKS * SLOTS_PER_WEEK
    batches = _scrambled_batches(ids, n_slots)
    delivered = sum(len(batch) for batch in batches)

    # Warmup pair: first-touch allocator and cache effects hit neither
    # measured series.
    _run_pipeline(ids, batches)
    _run_pipeline(ids, batches, profiler=StageProfiler())

    bare_runs, profiled_runs = [], []
    profiler = service = None
    for _ in range(_REPS):
        bare_runs.append(_run_pipeline(ids, batches)[0])
        profiler = StageProfiler()
        elapsed, service = _run_pipeline(ids, batches, profiler=profiler)
        profiled_runs.append(elapsed)
    bare = statistics.median(bare_runs)
    profiled = statistics.median(profiled_runs)
    overhead = profiled / max(bare, 1e-9) - 1.0

    record_bench(
        "fleetops",
        profiled,
        stage="profiler_overhead",
        weeks=_WEEKS,
        reps=_REPS,
        delivered_readings=delivered,
        bare_seconds=bare,
        overhead_ratio=profiled / max(bare, 1e-9),
        readings_per_second=delivered / max(profiled, 1e-9),
    )

    # The profile itself must be coherent: every pipeline stage
    # charged, counts exact, and each stage the same measurement as
    # its fdeta_stage_seconds series.
    stages = profiler.snapshot()
    for name in ("route", "release", "finish", "ingest", "scoring"):
        assert name in stages, f"stage {name!r} missing from profile"
    assert stages["route"]["calls"] == len(batches)
    histogram = service.metrics.histogram(
        "fdeta_stage_seconds",
        labels=("stage",),
        buckets=STAGE_SECONDS_BUCKETS,
    )
    for name, stats in stages.items():
        assert stats["calls"] == histogram.count(stage=name), name
        assert stats["cum_s"] == histogram.sum(stage=name), name

    assert overhead < _MAX_OVERHEAD, (
        f"profiler overhead {overhead:.1%} exceeds {_MAX_OVERHEAD:.0%} "
        f"(bare {bare:.4f}s, profiled {profiled:.4f}s)"
    )
