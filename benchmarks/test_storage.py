"""Benchmarks the storage-robustness layer's steady-state cost.

Two numbers matter operationally: what the pluggable I/O seam costs
when no faults are armed (it sits on the WAL hot path, so it must be
~free), and what a transient-fault retry storm costs relative to a
clean run.  Records land in ``BENCH_storage.json``.
"""

from __future__ import annotations

import numpy as np

from repro.core.kld import KLDDetector
from repro.core.online import TheftMonitoringService
from repro.durability import DurableTheftMonitor, WriteAheadLog, replay_wal
from repro.quarantine import FirewallPolicy, ReadingFirewall
from repro.resilience import ResilienceConfig
from repro.storage import FaultSchedule, FaultyIO
from repro.timeseries.seasonal import SLOTS_PER_WEEK

from benchmarks.conftest import BENCH_CONSUMERS, BenchTimer, record_bench

_CYCLES = 2 * SLOTS_PER_WEEK


def _population(n=BENCH_CONSUMERS):
    return tuple(f"c{i:04d}" for i in range(n))


def _cycle_readings(ids, t):
    rng = np.random.default_rng((2016, t))
    values = rng.gamma(2.0, 0.5, size=len(ids))
    return {cid: float(values[i]) for i, cid in enumerate(ids)}


def _detector_factory():
    return KLDDetector(significance=0.05)


def _service(ids):
    return TheftMonitoringService(
        detector_factory=_detector_factory,
        min_training_weeks=2,
        retrain_every_weeks=4,
        resilience=ResilienceConfig(),
        population=ids,
        firewall=ReadingFirewall(FirewallPolicy()),
    )


def _drive_wal(directory, cycles):
    with BenchTimer() as timer:
        with WriteAheadLog(directory) as wal:
            for t, readings in enumerate(cycles):
                wal.append_cycle(t, readings)
                wal.sync()
    return timer.elapsed


def test_seam_overhead_with_injection_disarmed(tmp_path):
    """The StorageIO seam vs. an exhausted FaultyIO on the same load.

    Both paths pay the seam dispatch; the FaultyIO adds the per-op
    schedule check that production never arms.  The ratio bounds what
    ``--storage-faults`` costs when it is *off*.
    """
    ids = _population()
    cycles = [_cycle_readings(ids, t) for t in range(_CYCLES)]

    plain_seconds = _drive_wal(tmp_path / "wal-plain", cycles)

    # One never-matching event keeps the schedule non-empty, so every
    # operation pays the full matching path.
    armed = FaultyIO(FaultSchedule.parse("never.matches:open@1=eio"))
    with BenchTimer() as armed_timer:
        with WriteAheadLog(tmp_path / "wal-armed", io=armed) as wal:
            for t, readings in enumerate(cycles):
                wal.append_cycle(t, readings)
                wal.sync()

    record_bench(
        "storage",
        plain_seconds,
        stage="seam_disarmed",
        cycles=_CYCLES,
        cycles_per_second=_CYCLES / max(plain_seconds, 1e-9),
        armed_seconds=armed_timer.elapsed,
        injection_overhead_ratio=armed_timer.elapsed
        / max(plain_seconds, 1e-9),
    )
    for directory in (tmp_path / "wal-plain", tmp_path / "wal-armed"):
        assert len(list(replay_wal(directory).cycles())) == _CYCLES


def test_transient_retry_overhead(tmp_path):
    """A burst of transient EIO faults vs. the same run fault-free."""
    ids = _population()
    cycles = [_cycle_readings(ids, t) for t in range(_CYCLES)]

    clean_seconds = _drive_wal(tmp_path / "wal-clean", cycles)

    # One transient append fault every ~40 cycles, each retried once.
    spec = ",".join(
        f"wal.append:write@{at}=eio" for at in range(40, _CYCLES, 40)
    )
    faulty = FaultyIO(FaultSchedule.parse(spec))
    with BenchTimer() as faulty_timer:
        with WriteAheadLog(tmp_path / "wal-faulty", io=faulty) as wal:
            for t, readings in enumerate(cycles):
                wal.append_cycle(t, readings)
                wal.sync()

    record_bench(
        "storage",
        faulty_timer.elapsed,
        stage="transient_retry_storm",
        cycles=_CYCLES,
        faults_injected=len(faulty.schedule.ledger),
        clean_seconds=clean_seconds,
        retry_overhead_ratio=faulty_timer.elapsed / max(clean_seconds, 1e-9),
    )
    # Every fault was absorbed: the log replays complete and clean.
    assert faulty.schedule.exhausted
    assert len(list(replay_wal(tmp_path / "wal-faulty").cycles())) == _CYCLES
