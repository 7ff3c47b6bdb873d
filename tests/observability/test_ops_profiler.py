"""Tests for the sampling hot-path stage profiler."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.observability.ops import StageProfiler


class ManualClock:
    """A clock the test advances explicitly (seconds)."""

    def __init__(self) -> None:
        self.now = 0.0
        self.reads = 0

    def advance(self, dt: float) -> None:
        self.now += dt

    def __call__(self) -> float:
        self.reads += 1
        return self.now


class TestSampling:
    def test_counts_are_exact_seconds_are_sampled(self):
        profiler = StageProfiler(sample_every=2, clock=ManualClock())
        for _ in range(10):
            with profiler.stage("ingest"):
                pass
        stats = profiler.snapshot()["ingest"]
        assert stats["calls"] == 10
        assert stats["sampled"] == 5

    def test_unsampled_windows_never_read_the_clock(self):
        clock = ManualClock()
        profiler = StageProfiler(sample_every=4, clock=clock)
        for _ in range(8):
            with profiler.stage("ingest"):
                pass
        # 2 sampled windows x (start + stop) reads.
        assert clock.reads == 4

    def test_sample_every_one_profiles_every_call(self):
        profiler = StageProfiler(sample_every=1, clock=ManualClock())
        for _ in range(3):
            with profiler.stage("s"):
                pass
        assert profiler.snapshot()["s"]["sampled"] == 3

    def test_nested_stages_inherit_the_sampling_decision(self):
        # With sample_every=2 the 1st/3rd/... top-level windows sample;
        # inner stages must follow the enclosing window, not re-decide.
        profiler = StageProfiler(sample_every=2, clock=ManualClock())
        for _ in range(4):
            with profiler.stage("outer"):
                with profiler.stage("inner"):
                    pass
        snap = profiler.snapshot()
        assert snap["outer"]["sampled"] == 2
        assert snap["inner"]["sampled"] == 2
        assert snap["inner"]["calls"] == 4

    def test_rejects_non_positive_sample_every(self):
        with pytest.raises(ConfigurationError, match="sample_every"):
            StageProfiler(sample_every=0)


class TestSelfVsCumulative:
    def test_self_time_excludes_children(self):
        clock = ManualClock()
        profiler = StageProfiler(sample_every=1, clock=clock)
        with profiler.stage("outer"):
            clock.advance(1.0)
            with profiler.stage("inner"):
                clock.advance(2.0)
            clock.advance(3.0)
        snap = profiler.snapshot()
        assert snap["outer"]["cum_s"] == pytest.approx(6.0)
        assert snap["outer"]["self_s"] == pytest.approx(4.0)
        assert snap["inner"]["cum_s"] == pytest.approx(2.0)
        assert snap["inner"]["self_s"] == pytest.approx(2.0)

    def test_sibling_children_both_subtract_from_parent(self):
        clock = ManualClock()
        profiler = StageProfiler(sample_every=1, clock=clock)
        with profiler.stage("outer"):
            with profiler.stage("a"):
                clock.advance(1.0)
            with profiler.stage("b"):
                clock.advance(2.0)
        snap = profiler.snapshot()
        assert snap["outer"]["self_s"] == pytest.approx(0.0)
        assert snap["outer"]["cum_s"] == pytest.approx(3.0)

    def test_estimates_scale_by_call_fraction(self):
        clock = ManualClock()
        profiler = StageProfiler(sample_every=2, clock=clock)
        for _ in range(4):
            with profiler.stage("s"):
                clock.advance(1.0)
        stats = profiler.snapshot()["s"]
        # 2 sampled seconds, 4 calls of 2 sampled -> x2 extrapolation.
        assert stats["cum_s"] == pytest.approx(2.0)
        assert stats["est_cum_s"] == pytest.approx(4.0)
        assert stats["est_self_s"] == pytest.approx(4.0)


class TestReporting:
    def _loaded(self):
        clock = ManualClock()
        profiler = StageProfiler(sample_every=1, clock=clock)
        with profiler.stage("hot"):
            clock.advance(5.0)
        with profiler.stage("cold"):
            clock.advance(1.0)
        return profiler

    def test_hot_stages_ranked_by_estimated_self_time(self):
        ranked = self._loaded().hot_stages(2)
        assert [entry["stage"] for entry in ranked] == ["hot", "cold"]

    def test_hot_stages_respects_top_n(self):
        assert len(self._loaded().hot_stages(1)) == 1

    def test_to_dict_shape(self):
        payload = self._loaded().to_dict(top=1)
        assert set(payload) == {"sample_every", "stages", "hot_stages"}
        assert payload["sample_every"] == 1
        assert set(payload["stages"]) == {"hot", "cold"}
        assert len(payload["hot_stages"]) == 1

    def test_write_emits_loadable_json(self, tmp_path):
        path = tmp_path / "profile.json"
        self._loaded().write(path)
        payload = json.loads(path.read_text())
        assert payload["stages"]["hot"]["calls"] == 1
