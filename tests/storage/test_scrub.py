"""Checkpoint corruption: detected by the footer, survived by recovery.

A corrupt current checkpoint is never loaded; ``recover_monitor`` falls
back to the previous generation and replays the WAL forward from it,
landing on the verdicts an undisturbed run produced.
"""

import os
import pickle
from pathlib import Path

import numpy as np
import pytest

from repro.core.kld import KLDDetector
from repro.core.online import TheftMonitoringService
from repro.durability.recovery import DurableTheftMonitor, recover_monitor
from repro.durability.wal import WriteAheadLog
from repro.errors import CheckpointError, ConfigurationError, RecoveryError
from repro.observability.events import EventLogger
from repro.quarantine import FirewallPolicy, ReadingFirewall
from repro.resilience.checkpoint import (
    _seal,
    load_checkpoint,
    previous_generation_path,
    save_checkpoint,
    verify_checkpoint,
)
from repro.resilience.config import ResilienceConfig
from repro.timeseries.seasonal import SLOTS_PER_WEEK

CONSUMERS = ("c1", "c2", "c3")
WEEKS = 3


def _factory():
    return KLDDetector(significance=0.05)


def _service():
    return TheftMonitoringService(
        detector_factory=_factory,
        min_training_weeks=2,
        retrain_every_weeks=4,
        resilience=ResilienceConfig(),
        population=CONSUMERS,
        firewall=ReadingFirewall(FirewallPolicy(max_reading_kwh=50.0)),
    )


def _readings(t):
    rng = np.random.default_rng((23, t))
    return {cid: float(rng.gamma(2.0, 0.5)) for cid in CONSUMERS}


def _signature(service):
    return [
        (r.week_index, tuple(a.consumer_id for a in r.alerts))
        for r in service.reports
    ]


def _run_durable(tmp_path, weeks=WEEKS, segment_bytes=1 << 20):
    """Run ``weeks`` through a durable monitor; returns (ckpt, wal_dir)."""
    ckpt = str(tmp_path / "service.ckpt")
    wal_dir = str(tmp_path / "wal")
    monitor = DurableTheftMonitor(
        _service(),
        WriteAheadLog(wal_dir, segment_max_bytes=segment_bytes),
        checkpoint_path=ckpt,
    )
    for t in range(weeks * SLOTS_PER_WEEK):
        monitor.ingest_cycle(_readings(t))
    monitor.close()
    return ckpt, wal_dir


def _corrupt(path, offset_fraction=0.4):
    size = os.path.getsize(path)
    offset = int(size * offset_fraction)
    with open(path, "r+b") as handle:
        handle.seek(offset)
        byte = handle.read(1)
        handle.seek(offset)
        handle.write(bytes((byte[0] ^ 0xFF,)))


def _baseline_signature(weeks=WEEKS):
    service = _service()
    for t in range(weeks * SLOTS_PER_WEEK):
        service.ingest_cycle(_readings(t))
    return _signature(service)


class TestVerifyCheckpoint:
    def test_sealed_checkpoint_verifies_ok(self, tmp_path):
        ckpt, _ = _run_durable(tmp_path)
        assert verify_checkpoint(ckpt) == "ok"
        assert verify_checkpoint(previous_generation_path(ckpt)) == "ok"

    def test_missing_and_corrupt_statuses(self, tmp_path):
        assert verify_checkpoint(str(tmp_path / "absent")) == "missing"
        ckpt, _ = _run_durable(tmp_path)
        _corrupt(ckpt)
        assert verify_checkpoint(ckpt) == "corrupt"

    def test_load_refuses_a_corrupt_checkpoint(self, tmp_path):
        ckpt, _ = _run_durable(tmp_path)
        _corrupt(ckpt)
        with pytest.raises(CheckpointError, match="integrity"):
            load_checkpoint(ckpt, _factory)

    def test_previous_generation_survives_each_save(self, tmp_path):
        ckpt = str(tmp_path / "s.ckpt")
        service = _service()
        for t in range(SLOTS_PER_WEEK):
            service.ingest_cycle(_readings(t))
        save_checkpoint(service, ckpt)
        first = Path(ckpt).read_bytes()
        for t in range(SLOTS_PER_WEEK, 2 * SLOTS_PER_WEEK):
            service.ingest_cycle(_readings(t))
        save_checkpoint(service, ckpt)
        previous = Path(previous_generation_path(ckpt)).read_bytes()
        assert previous == first


class TestScrubRepair:
    """``recover_monitor`` survives a corrupt current generation."""

    def test_corrupt_current_is_rebuilt_with_identical_verdicts(
        self, tmp_path
    ):
        ckpt, wal_dir = _run_durable(tmp_path)
        _corrupt(ckpt)
        log = tmp_path / "events.jsonl"
        events = EventLogger(path=str(log))
        result = recover_monitor(
            wal_dir,
            detector_factory=_factory,
            checkpoint_path=ckpt,
            service_factory=_service,
            events=events,
        )
        assert result.generation == "previous"
        assert result.replayed_cycles == SLOTS_PER_WEEK
        # The previous generation plus WAL replay lands on the exact
        # verdicts an undisturbed run produced.
        assert _signature(result.service) == _baseline_signature()
        totals = result.service.metrics.totals()
        assert totals[("fdeta_storage_checkpoint_corruptions_total", ())] == 1

        # The next checkpoint heals the file, and the corrupt bytes are
        # never promoted over the good previous generation.
        previous = Path(previous_generation_path(ckpt)).read_bytes()
        monitor = DurableTheftMonitor(
            result.service, WriteAheadLog(wal_dir), checkpoint_path=ckpt
        )
        for t in range(WEEKS * SLOTS_PER_WEEK, (WEEKS + 1) * SLOTS_PER_WEEK):
            monitor.ingest_cycle(_readings(t))
        monitor.close()
        events.close()
        assert '"checkpoint_fallback"' in log.read_text()
        assert verify_checkpoint(ckpt) == "ok"
        assert Path(previous_generation_path(ckpt)).read_bytes() == previous

    def test_repair_without_previous_needs_service_factory(self, tmp_path):
        ckpt, wal_dir = _run_durable(tmp_path)
        _corrupt(ckpt)
        os.unlink(previous_generation_path(ckpt))
        with pytest.raises(ConfigurationError, match="service_factory"):
            recover_monitor(wal_dir, detector_factory=_factory, checkpoint_path=ckpt)
        # With a factory the WAL alone rebuilds it: the log fits in one
        # never-compacted segment, so the replay covers from cycle zero.
        result = recover_monitor(
            wal_dir,
            detector_factory=_factory,
            checkpoint_path=ckpt,
            service_factory=_service,
        )
        assert result.generation is None
        assert result.replayed_cycles == WEEKS * SLOTS_PER_WEEK
        assert _signature(result.service) == _baseline_signature()

    def test_unrepairable_when_wal_does_not_cover_the_gap(self, tmp_path):
        # Both generations corrupt: only a full replay could rebuild,
        # and compaction already dropped the log before ``.prev``.
        # Small segments force rotations so compaction actually drops
        # the covered cycles (one big active segment is never removed).
        ckpt, wal_dir = _run_durable(tmp_path, segment_bytes=4096)
        _corrupt(ckpt)
        _corrupt(previous_generation_path(ckpt))
        with pytest.raises(RecoveryError, match="WAL gap"):
            recover_monitor(
                wal_dir,
                detector_factory=_factory,
                checkpoint_path=ckpt,
                service_factory=_service,
            )

    def test_wal_always_covers_the_previous_generation(self, tmp_path):
        # Compaction lags one generation with no option: the same small
        # segments that lose a two-generation corruption still replay
        # ``.prev`` forward.
        ckpt, wal_dir = _run_durable(tmp_path, segment_bytes=4096)
        _corrupt(ckpt)
        result = recover_monitor(
            wal_dir,
            detector_factory=_factory,
            checkpoint_path=ckpt,
            service_factory=_service,
        )
        assert result.generation == "previous"
        assert _signature(result.service) == _baseline_signature()

    def test_version_mismatch_does_not_fall_back(self, tmp_path):
        ckpt, wal_dir = _run_durable(tmp_path)
        with open(ckpt, "rb") as handle:
            payload = pickle.load(handle)
        payload["version"] = -1
        Path(ckpt).write_bytes(_seal(pickle.dumps(payload)))
        with pytest.raises(CheckpointError, match="version -1"):
            recover_monitor(
                wal_dir,
                detector_factory=_factory,
                checkpoint_path=ckpt,
                service_factory=_service,
            )
