"""Checkpoint/restore round-trip tests (acceptance criterion).

Serialize mid-week, restore into a fresh service, and verify the
restored service produces bit-identical :class:`MonitoringReport`s to an
uninterrupted run.
"""

import pickle
import sys
import types

import numpy as np
import pytest

from repro.core.kld import KLDDetector
from repro.core.online import TheftMonitoringService
from repro.errors import CheckpointError, CorruptCheckpointError
from repro.resilience import ResilienceConfig, load_checkpoint, save_checkpoint
from repro.resilience.checkpoint import CHECKPOINT_VERSION, _seal
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


def write_checkpoint_naming_a_missing_module(path):
    """Seal a checkpoint whose pickle references a module that is gone,
    as a file written by a version with a since-deleted class would."""
    module = types.ModuleType("fdeta_deleted_module")

    class Gone:
        pass

    Gone.__module__, Gone.__qualname__ = module.__name__, "Gone"
    module.Gone = Gone
    sys.modules[module.__name__] = module
    try:
        data = pickle.dumps(
            {
                "magic": "fdeta-checkpoint",
                "version": CHECKPOINT_VERSION - 1,
                "state": {"firewall": Gone()},
            }
        )
    finally:
        del sys.modules[module.__name__]
    path.write_bytes(_seal(data))


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
        gaps_before = int(np.isnan(service.store.series(dropped)).sum())
        assert gaps_before > 0
        service.checkpoint(path)
        restored = load_checkpoint(path, _factory)
        gaps_after = int(np.isnan(restored.store.series(dropped)).sum())
        assert gaps_after == gaps_before

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
        assert restored._breakers.quarantined() == ()
        assert restored.reports == service.reports
        for cycle in cycles[7 * SLOTS_PER_WEEK :]:
            restored.ingest_cycle(cycle)
            service.ingest_cycle(cycle)
        assert restored.weeks_completed == 12
        assert restored.reports == service.reports


def _gappy_service(cycles, n_cycles):
    """A service whose store holds gaps that survive week repair."""
    service = _make_service()
    dropped = sorted(cycles[0])[1]
    for t, cycle in enumerate(cycles[:n_cycles]):
        if 20 <= t % 50 < 26 or t % 97 == 5:
            cycle = {k: v for k, v in cycle.items() if k != dropped}
        service.ingest_cycle(cycle)
    assert int(np.isnan(service.store.series(dropped)).sum()) > 0
    return service


def _assert_same_series(got, want):
    assert got.consumers() == want.consumers()
    for cid in want.consumers():
        assert np.array_equal(
            got.series(cid), want.series(cid), equal_nan=True
        )


class TestStoreState:
    def test_list_form_checkpoint_restores_into_the_matrix(
        self, cycles, tmp_path, monkeypatch
    ):
        """A checkpoint whose ``"series"`` is a list of readings per
        consumer (the layout before the store became one matrix)
        restores NaN-equal and keeps ingesting identically."""
        path = tmp_path / "service.ckpt"
        service = _gappy_service(cycles, 7 * SLOTS_PER_WEEK + 40)
        state = service._state_dict()
        del state["store"]
        state["series"] = {
            cid: [float(v) for v in service.store.series(cid)]
            for cid in service.store.consumers()
        }
        monkeypatch.setattr(service, "_state_dict", lambda: state)
        save_checkpoint(service, path)
        monkeypatch.undo()
        restored = load_checkpoint(path, _factory)
        _assert_same_series(restored.store, service.store)
        for cycle in cycles[7 * SLOTS_PER_WEEK + 40 :]:
            restored.ingest_cycle(cycle)
            service.ingest_cycle(cycle)
        _assert_same_series(restored.store, service.store)
        assert restored.reports == service.reports

    def test_matrix_checkpoint_round_trips(self, cycles, tmp_path):
        path = tmp_path / "service.ckpt"
        service = _gappy_service(cycles, 3 * SLOTS_PER_WEEK + 11)
        service.checkpoint(path)
        restored = load_checkpoint(path, _factory)
        _assert_same_series(restored.store, service.store)
        assert restored.cycles_ingested == service.cycles_ingested

    def test_release_then_adopt_keeps_order_and_series(self, cycles):
        service = _gappy_service(cycles, 2 * SLOTS_PER_WEEK + 9)
        before = {cid: service.store.series(cid) for cid in service.roster}
        order = service.store.consumers()
        mover = order[0]
        packet = service.release_consumer(mover)
        assert mover not in service.store.consumers()
        service.adopt_consumer(mover, packet)
        # Like a dict re-insertion: the adopted consumer goes last.
        assert service.store.consumers() == (*order[1:], mover)
        for cid, series in before.items():
            assert np.array_equal(
                service.store.series(cid), series, equal_nan=True
            )


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

    def test_pickle_naming_a_missing_module_is_incompatible(self, tmp_path):
        path = tmp_path / "older.ckpt"
        write_checkpoint_naming_a_missing_module(path)
        with pytest.raises(CheckpointError, match="incompatible version") as info:
            load_checkpoint(path, _factory)
        # Not corruption: recovery must not fall back to .prev and
        # hide the version mismatch.
        assert not isinstance(info.value, CorruptCheckpointError)

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
