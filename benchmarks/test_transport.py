"""Benchmarks the transport seam's steady-state and failure-mode cost.

Three numbers matter operationally: what the message seam costs when no
faults are armed (it sits on every coordinator-to-shard ingest, so it
must be ~free), what a transient retry storm costs relative to a clean
run, and how long partition-heal recovery takes (it gates the fleet's
return to a converged low watermark).  Records land in
``BENCH_transport.json``.
"""

from __future__ import annotations

import statistics

import numpy as np

from repro.core.kld import KLDDetector
from repro.core.online import TheftMonitoringService
from repro.durability import DurableTheftMonitor, WriteAheadLog
from repro.quarantine import FirewallPolicy, ReadingFirewall
from repro.resilience import ResilienceConfig
from repro.resilience.retry import RetryPolicy
from repro.timeseries.seasonal import SLOTS_PER_WEEK
from repro.transport import (
    FaultyTransport,
    InProcTransport,
    ShardClient,
    ShardEndpoint,
    parse_network_faults,
)

from benchmarks.conftest import BENCH_CONSUMERS, BenchTimer, record_bench

_CYCLES = 2 * SLOTS_PER_WEEK
_REPS = 3
_MAX_SEAM_OVERHEAD = 0.05


def _population(n=BENCH_CONSUMERS):
    return tuple(f"c{i:04d}" for i in range(n))


def _cycle_readings(ids, t):
    rng = np.random.default_rng((2016, t))
    values = rng.gamma(2.0, 0.5, size=len(ids))
    return {cid: float(values[i]) for i, cid in enumerate(ids)}


def _service(ids):
    return TheftMonitoringService(
        detector_factory=lambda: KLDDetector(significance=0.05),
        min_training_weeks=2,
        retrain_every_weeks=4,
        resilience=ResilienceConfig(),
        population=ids,
        firewall=ReadingFirewall(FirewallPolicy()),
    )


def _run_durable(ids, cycles, wal_dir, seamed):
    """Drive the production ingest unit, bare or through the seam.

    The workload is what a shard worker actually runs per cycle — WAL
    append + firewall + service ingest — so the ratio measures the seam
    tax where it is levied, not against an in-memory strawman.
    """
    monitor = DurableTheftMonitor(_service(ids), WriteAheadLog(wal_dir))
    if seamed:
        transport = InProcTransport()
        endpoint = ShardEndpoint("shard-0000")
        endpoint.bind({"ingest": lambda p: monitor.ingest_cycle(p)})
        transport.register(endpoint)
        client = ShardClient(transport, "shard-0000")
        ingest = lambda t, readings: client.call("ingest", readings, seq=t)
    else:
        ingest = lambda t, readings: monitor.ingest_cycle(readings)
    try:
        with BenchTimer() as timer:
            for t, readings in enumerate(cycles):
                ingest(t, readings)
    finally:
        monitor.close()
    return timer.elapsed


def test_seam_overhead_with_injection_disarmed(tmp_path):
    """Envelope seal/verify/cache vs. the same ingest called directly.

    Every seamed call pays the request id, the payload fingerprint, the
    checksum verify, and the reply cache — the full idempotency tax.
    The ratio bounds what routing ingest through :class:`ShardClient`
    costs a healthy fleet.
    """
    ids = _population()
    cycles = [_cycle_readings(ids, t) for t in range(_CYCLES)]

    # Warmup pair so first-touch effects hit neither measured series.
    _run_durable(ids, cycles, tmp_path / "warm-direct", seamed=False)
    _run_durable(ids, cycles, tmp_path / "warm-seamed", seamed=True)

    direct_runs, seamed_runs = [], []
    for rep in range(_REPS):
        direct_runs.append(
            _run_durable(ids, cycles, tmp_path / f"direct-{rep}", seamed=False)
        )
        seamed_runs.append(
            _run_durable(ids, cycles, tmp_path / f"seamed-{rep}", seamed=True)
        )
    direct = statistics.median(direct_runs)
    seamed = statistics.median(seamed_runs)
    overhead = seamed / max(direct, 1e-9) - 1.0

    record_bench(
        "transport",
        seamed,
        stage="seam_disarmed",
        cycles=_CYCLES,
        reps=_REPS,
        direct_seconds=direct,
        overhead_ratio=seamed / max(direct, 1e-9),
        cycles_per_second=_CYCLES / max(seamed, 1e-9),
    )
    assert overhead < _MAX_SEAM_OVERHEAD, (
        f"transport seam overhead {overhead:.1%} exceeds "
        f"{_MAX_SEAM_OVERHEAD:.0%} "
        f"(direct {direct:.4f}s, seamed {seamed:.4f}s)"
    )


def test_retry_storm_latency():
    """A burst of drop/garble faults vs. the same call stream clean.

    Backoff sleeps are stubbed out, so this measures the machinery —
    re-seal, re-deliver, ledger, metrics — not the (configurable) wait.
    """
    ids = _population()
    cycles = [_cycle_readings(ids, t) for t in range(_CYCLES)]

    def _drive(transport):
        service = _service(ids)
        endpoint = ShardEndpoint("shard-0000")
        endpoint.bind({"ingest": lambda p: service.ingest_cycle(p)})
        transport.register(endpoint)
        client = ShardClient(
            transport,
            "shard-0000",
            policy=RetryPolicy(max_attempts=4),
            sleep=lambda _s: None,
        )
        with BenchTimer() as timer:
            for t, readings in enumerate(cycles):
                client.call("ingest", readings, seq=t)
        return timer.elapsed

    clean_seconds = _drive(InProcTransport())

    # One transient fault every ~20 calls, alternating kinds; each one
    # costs a full extra round trip.
    spec = ",".join(
        f"shard-0000:ingest@{at}={'drop' if i % 2 else 'garble'}"
        for i, at in enumerate(range(20, _CYCLES, 20))
    )
    schedule = parse_network_faults(spec)
    storm_seconds = _drive(FaultyTransport(schedule))
    assert schedule.exhausted

    record_bench(
        "transport",
        storm_seconds,
        stage="retry_storm",
        cycles=_CYCLES,
        faults=len(schedule.events),
        clean_seconds=clean_seconds,
        storm_overhead_ratio=storm_seconds / max(clean_seconds, 1e-9),
    )


def test_partition_heal_recovery(tmp_path):
    """Wall time to replay a partition buffer after the link heals."""
    import sys

    sys.path.insert(0, "tests/scaleout")
    from _fixtures import (
        CONSUMERS,
        detector_factory,
        service_factory,
        readings,
    )

    from repro.scaleout.fleet import ElasticFleet

    cycles = 2 * SLOTS_PER_WEEK
    sever_at = SLOTS_PER_WEEK  # one full week buffered on the far side
    transport = FaultyTransport(
        parse_network_faults(f"shard-0000:ingest@{sever_at}=partition")
    )
    with ElasticFleet(
        CONSUMERS,
        tmp_path,
        service_factory,
        detector_factory,
        n_shards=2,
        transport=transport,
    ) as fleet:
        for t in range(cycles):
            fleet.ingest_cycle(readings(t))
        buffered = len(fleet._workers["shard-0000"].pending)
        transport.heal_all()
        with BenchTimer() as timer:
            replayed = fleet.drain_backlog()
        assert replayed == buffered > 0
        assert fleet.low_watermark == cycles - 1

    record_bench(
        "transport",
        timer.elapsed,
        stage="partition_heal_recovery",
        buffered_cycles=buffered,
        replayed_cycles_per_second=buffered / max(timer.elapsed, 1e-9),
    )
