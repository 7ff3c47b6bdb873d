"""Checkpoint/restore round-trip tests (acceptance criterion).

Serialize mid-week, restore into a fresh service, and verify the
restored service produces bit-identical :class:`MonitoringReport`s to an
uninterrupted run.
"""

import pickle

import pytest

from repro.core.kld import KLDDetector
from repro.core.online import TheftMonitoringService
from repro.errors import CheckpointError
from repro.resilience import ResilienceConfig, load_checkpoint, save_checkpoint
from repro.resilience.checkpoint import CHECKPOINT_VERSION
from repro.timeseries.seasonal import SLOTS_PER_WEEK


def _factory():
    return KLDDetector(significance=0.05)


@pytest.fixture(scope="module")
def cycles(paper_dataset):
    """12 weeks of polling cycles for three consumers."""
    ids = paper_dataset.consumers()[:3]
    series = {cid: paper_dataset.series(cid) for cid in ids}
    return [
        {cid: float(series[cid][t]) for cid in ids}
        for t in range(12 * SLOTS_PER_WEEK)
    ]


def _make_service():
    return TheftMonitoringService(
        detector_factory=_factory,
        min_training_weeks=6,
        retrain_every_weeks=3,
        resilience=ResilienceConfig(min_coverage=0.6),
    )


class TestRoundTrip:
    def test_mid_week_restore_is_bit_identical(self, cycles, tmp_path):
        path = tmp_path / "service.ckpt"
        # Uninterrupted reference run.
        reference = _make_service()
        for cycle in cycles:
            reference.ingest_cycle(cycle)
        # Interrupted run: checkpoint mid-week 8 (not at a boundary),
        # restore into a fresh service object, continue.
        interrupted = _make_service()
        checkpoint_at = 8 * SLOTS_PER_WEEK + 117
        for cycle in cycles[:checkpoint_at]:
            interrupted.ingest_cycle(cycle)
        interrupted.checkpoint(path)
        restored = TheftMonitoringService.restore(path, _factory)
        del interrupted
        for cycle in cycles[checkpoint_at:]:
            restored.ingest_cycle(cycle)
        assert restored.weeks_completed == reference.weeks_completed
        assert restored.reports == reference.reports
        for ours, theirs in zip(restored.reports, reference.reports):
            for a, b in zip(ours.alerts, theirs.alerts):
                assert a.score == b.score  # bit-identical, not approx
                assert a.threshold == b.threshold

    def test_restore_preserves_training_and_quarantine(self, cycles, tmp_path):
        path = tmp_path / "service.ckpt"
        service = _make_service()
        for cycle in cycles[: 9 * SLOTS_PER_WEEK]:
            service.ingest_cycle(cycle)
        service.checkpoint(path)
        restored = load_checkpoint(path, _factory)
        assert restored.is_trained == service.is_trained
        assert restored._quarantined_weeks == service._quarantined_weeks
        assert restored._roster == service._roster
        assert restored.resilience == service.resilience
        for cid in service.store.consumers():
            assert restored.store.length(cid) == service.store.length(cid)

    def test_partial_cycles_survive_restore(self, cycles, tmp_path):
        """Gap markers recorded before the crash stay slot-aligned."""
        path = tmp_path / "service.ckpt"
        service = _make_service()
        roster = sorted(cycles[0])
        dropped = roster[0]
        for t, cycle in enumerate(cycles[: 2 * SLOTS_PER_WEEK]):
            # Runs of 6 lost slots: longer than max_repair_gap, so the
            # gap markers survive the week-boundary interpolation pass.
            # Starts past t=0 so the first cycle fixes the population.
            if 20 <= t % 50 < 26:
                cycle = {k: v for k, v in cycle.items() if k != dropped}
            service.ingest_cycle(cycle)
        gaps_before = service.store.gap_count(dropped)
        assert gaps_before > 0
        service.checkpoint(path)
        restored = load_checkpoint(path, _factory)
        assert restored.store.gap_count(dropped) == gaps_before

    def test_strict_mode_checkpoint_restores_onto_the_one_path(
        self, cycles, tmp_path
    ):
        """A checkpoint written by a strict-mode service (no resilience
        config, no firewall, no breakers) restores with the defaults and
        keeps ingesting."""
        path = tmp_path / "service.ckpt"
        service = TheftMonitoringService(
            detector_factory=_factory, min_training_weeks=6
        )
        for cycle in cycles[: 7 * SLOTS_PER_WEEK]:
            service.ingest_cycle(cycle)
        state = service._state_dict()
        state.update(resilience=None, firewall=None, breakers=None)
        path.write_bytes(
            pickle.dumps(
                {
                    "magic": "fdeta-checkpoint",
                    "version": CHECKPOINT_VERSION,
                    "state": state,
                }
            )
        )
        restored = load_checkpoint(path, _factory)
        assert restored.resilience == ResilienceConfig()
        assert len(restored.firewall.store) == 0
        assert restored.quarantined_consumers() == ()
        assert restored.reports == service.reports
        for cycle in cycles[7 * SLOTS_PER_WEEK :]:
            restored.ingest_cycle(cycle)
            service.ingest_cycle(cycle)
        assert restored.weeks_completed == 12
        assert restored.reports == service.reports


class TestCheckpointFileFormat:
    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="no checkpoint"):
            load_checkpoint(tmp_path / "absent.ckpt", _factory)

    def test_garbage_file(self, tmp_path):
        path = tmp_path / "garbage.ckpt"
        path.write_bytes(b"not a pickle at all")
        with pytest.raises(CheckpointError, match="corrupt"):
            load_checkpoint(path, _factory)

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "other.ckpt"
        path.write_bytes(pickle.dumps({"magic": "something-else"}))
        with pytest.raises(CheckpointError, match="not an F-DETA checkpoint"):
            load_checkpoint(path, _factory)

    def test_wrong_version(self, tmp_path):
        path = tmp_path / "old.ckpt"
        path.write_bytes(
            pickle.dumps(
                {
                    "magic": "fdeta-checkpoint",
                    "version": CHECKPOINT_VERSION + 1,
                    "state": {},
                }
            )
        )
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path, _factory)

    def test_atomic_write_replaces_previous(self, cycles, tmp_path):
        path = tmp_path / "service.ckpt"
        service = _make_service()
        for cycle in cycles[:SLOTS_PER_WEEK]:
            service.ingest_cycle(cycle)
        save_checkpoint(service, path)
        first = path.read_bytes()
        for cycle in cycles[SLOTS_PER_WEEK : 2 * SLOTS_PER_WEEK]:
            service.ingest_cycle(cycle)
        save_checkpoint(service, path)
        assert path.read_bytes() != first
        # No temp files left behind.
        leftovers = [p for p in path.parent.iterdir() if p.suffix == ".tmp"]
        assert leftovers == []
