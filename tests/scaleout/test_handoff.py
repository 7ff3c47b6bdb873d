"""Handoff primitives: manifest atomicity, epoch fencing, records."""

import json
import os

import pytest

from repro.core.kld import KLDDetector
from repro.core.online import TheftMonitoringService
from repro.durability.recovery import DurableTheftMonitor
from repro.durability.wal import WriteAheadLog
from repro.errors import HandoffError, StaleWriterError
from repro.resilience.config import ResilienceConfig
from repro.scaleout import (
    HANDOFF_PHASES,
    FencedMonitor,
    HandoffRecord,
    read_manifest,
    write_manifest,
)


def _factory():
    return KLDDetector(significance=0.05)


def _service(consumers=("c1", "c2")):
    return TheftMonitoringService(
        detector_factory=_factory,
        min_training_weeks=2,
        resilience=ResilienceConfig(),
        population=consumers,
    )


def _fenced(tmp_path, shard="shard-0000", epoch=1, fence=None):
    service = _service()
    wal = WriteAheadLog(tmp_path / shard)
    inner = DurableTheftMonitor(
        service, wal, checkpoint_path=str(tmp_path / f"{shard}.ckpt")
    )
    fence = fence if fence is not None else {shard: epoch}
    return FencedMonitor(inner, shard, epoch, fence), fence


class TestManifest:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "fleet.json"
        state = {"shards": {"shard-0000": {"epoch": 3}}, "cycle": 42}
        write_manifest(path, state)
        loaded = read_manifest(path)
        assert loaded["shards"] == state["shards"]
        assert loaded["cycle"] == 42

    def test_missing_manifest_reads_none(self, tmp_path):
        assert read_manifest(tmp_path / "absent.json") is None

    def test_write_replaces_atomically(self, tmp_path):
        path = tmp_path / "fleet.json"
        write_manifest(path, {"cycle": 1})
        write_manifest(path, {"cycle": 2})
        assert read_manifest(path)["cycle"] == 2
        assert not os.path.exists(f"{path}.tmp")

    def test_corrupt_manifest_raises(self, tmp_path):
        path = tmp_path / "fleet.json"
        path.write_text("{ torn json", encoding="utf-8")
        with pytest.raises(HandoffError, match="corrupt"):
            read_manifest(path)

    def test_unsupported_version_raises(self, tmp_path):
        path = tmp_path / "fleet.json"
        path.write_text(json.dumps({"version": 99}), encoding="utf-8")
        with pytest.raises(HandoffError, match="version"):
            read_manifest(path)


class TestHandoffRecord:
    def test_json_round_trip(self):
        record = HandoffRecord(
            moves=(("c1", "shard-0000", "shard-0002"),),
            added=("shard-0002",),
            cycle=336,
        )
        assert HandoffRecord.from_json(record.to_json()) == record

    def test_phase_names_are_stable(self):
        # Chaos suites and operators key off these exact names.
        assert HANDOFF_PHASES == (
            "quiesce",
            "snapshot",
            "commit",
            "install",
            "finalize",
        )


class TestFencing:
    def test_current_epoch_writes_pass(self, tmp_path):
        monitor, _ = _fenced(tmp_path)
        try:
            report = monitor.ingest_cycle({"c1": 1.0, "c2": 2.0})
            assert report is None
            assert monitor.service.cycles_ingested == 1
        finally:
            monitor.close()

    def test_superseded_epoch_raises_stale_writer(self, tmp_path):
        monitor, fence = _fenced(tmp_path)
        try:
            fence["shard-0000"] += 1  # ownership moved on
            with pytest.raises(StaleWriterError):
                monitor.ingest_cycle({"c1": 1.0, "c2": 2.0})
            with pytest.raises(StaleWriterError):
                monitor.checkpoint_now()
        finally:
            monitor.close()

    def test_removed_shard_fences_writer(self, tmp_path):
        monitor, fence = _fenced(tmp_path)
        try:
            del fence["shard-0000"]  # shard retired from the fleet
            with pytest.raises(StaleWriterError):
                monitor.ingest_cycle({"c1": 1.0, "c2": 2.0})
        finally:
            monitor.close()

    def test_checkpoint_now_compacts_to_a_self_contained_state(
        self, tmp_path
    ):
        monitor, _ = _fenced(tmp_path)
        try:
            for t in range(5):
                monitor.ingest_cycle({"c1": 1.0, "c2": 2.0})
            monitor.checkpoint_now()
            assert os.path.exists(tmp_path / "shard-0000.ckpt")
        finally:
            monitor.close()
        # Both generations hold the handoff state, so a fallback to
        # ``.prev`` cannot resurrect a pre-handoff roster.
        for name in ("shard-0000.ckpt", "shard-0000.ckpt.prev"):
            restored = TheftMonitoringService.restore(tmp_path / name, _factory)
            assert restored.cycles_ingested == 5

    def test_checkpoint_now_requires_checkpoint_path(self, tmp_path):
        service = _service()
        wal = WriteAheadLog(tmp_path / "shard-0000")
        inner = DurableTheftMonitor(service, wal, checkpoint_path=None)
        monitor = FencedMonitor(inner, "shard-0000", 1, {"shard-0000": 1})
        try:
            with pytest.raises(HandoffError, match="checkpoint"):
                monitor.checkpoint_now()
        finally:
            monitor.close()
