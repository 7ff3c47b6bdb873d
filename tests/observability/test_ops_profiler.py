"""Tests for the exact per-stage profile."""

import json

from repro.observability.ops import StageProfiler


class TestSelfVsCumulative:
    def test_self_time_excludes_children(self):
        profiler = StageProfiler()
        profiler.enter()  # outer
        profiler.enter()  # inner
        profiler.leave("inner", 2.0)
        profiler.leave("outer", 6.0)
        snap = profiler.snapshot()
        assert snap["outer"] == {"calls": 1, "cum_s": 6.0, "self_s": 4.0}
        assert snap["inner"] == {"calls": 1, "cum_s": 2.0, "self_s": 2.0}

    def test_sibling_children_both_subtract_from_parent(self):
        profiler = StageProfiler()
        profiler.enter()  # outer
        profiler.enter()
        profiler.leave("a", 1.0)
        profiler.enter()
        profiler.leave("b", 2.0)
        profiler.leave("outer", 3.0)
        snap = profiler.snapshot()
        assert snap["outer"]["self_s"] == 0.0
        assert snap["outer"]["cum_s"] == 3.0


class TestReporting:
    def _loaded(self):
        profiler = StageProfiler()
        profiler.enter()
        profiler.leave("cold", 1.0)
        profiler.enter()
        profiler.leave("hot", 5.0)
        return profiler

    def test_hot_stages_ranked_by_self_time(self):
        ranked = self._loaded().hot_stages(2)
        assert [entry["stage"] for entry in ranked] == ["hot", "cold"]

    def test_hot_stages_respects_top_n(self):
        assert len(self._loaded().hot_stages(1)) == 1

    def test_to_dict_shape(self):
        payload = self._loaded().to_dict(top=1)
        assert set(payload) == {"stages", "hot_stages"}
        assert set(payload["hot_stages"][0]) == {
            "stage", "calls", "cum_s", "self_s"
        }
        assert set(payload["stages"]) == {"hot", "cold"}
        assert len(payload["hot_stages"]) == 1

    def test_write_emits_loadable_json(self, tmp_path):
        path = tmp_path / "profile.json"
        self._loaded().write(path)
        payload = json.loads(path.read_text())
        assert payload["stages"]["hot"]["calls"] == 1
