"""Tests for the span tracer."""

import json
import pickle

from repro.observability.tracing import Span, Tracer, trace


class TestNesting:
    def test_with_structure_becomes_tree_structure(self):
        tracer = Tracer()
        with tracer.span("week", week=0):
            with tracer.span("audit"):
                pass
            with tracer.span("assess"):
                with tracer.span("score"):
                    pass
        with tracer.span("week", week=1):
            pass
        assert [root.name for root in tracer.roots] == ["week", "week"]
        first = tracer.roots[0]
        assert [child.name for child in first.children] == ["audit", "assess"]
        assert first.children[1].children[0].name == "score"

    def test_active_tracks_the_innermost_span(self):
        tracer = Tracer()
        assert tracer.active is None
        with tracer.span("outer"):
            assert tracer.active.name == "outer"
            with tracer.span("inner"):
                assert tracer.active.name == "inner"
            assert tracer.active.name == "outer"
        assert tracer.active is None

    def test_stack_unwinds_on_exception(self):
        tracer = Tracer()
        try:
            with tracer.span("doomed"):
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert tracer.active is None
        assert tracer.roots[0].finished

    def test_walk_is_depth_first(self):
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("b"):
                with tracer.span("c"):
                    pass
            with tracer.span("d"):
                pass
        assert [span.name for span in tracer.spans()] == ["a", "b", "c", "d"]

    def test_find_by_name(self):
        tracer = Tracer()
        for week in range(3):
            with tracer.span("week", week=week):
                pass
        weeks = [span for span in tracer.spans() if span.name == "week"]
        assert len(weeks) == 3
        assert [span.fields["week"] for span in weeks] == [0, 1, 2]


class TestTiming:
    def test_durations_are_positive_and_nested_sums_bound(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                sum(range(1000))
        outer, inner = tracer.roots[0], tracer.roots[0].children[0]
        assert outer.finished and inner.finished
        assert inner.duration >= 0.0
        assert outer.duration >= inner.duration

    def test_open_span_reports_running_duration(self):
        span = Span(name="open", start=0.0)
        assert not span.finished
        assert span.duration > 0.0


class TestExport:
    def test_to_dict_shape(self):
        tracer = Tracer()
        with tracer.span("week", week=2):
            with tracer.span("assess"):
                pass
        tree = tracer.to_dict()
        assert set(tree) == {"spans"}
        root = tree["spans"][0]
        assert root["name"] == "week"
        assert root["fields"] == {"week": 2}
        assert root["duration_s"] >= 0.0
        assert root["children"][0]["name"] == "assess"
        assert root["children"][0]["children"] == []

    def test_write_produces_loadable_json(self, tmp_path):
        tracer = Tracer()
        with tracer.span("week"):
            pass
        path = tmp_path / "trace.json"
        tracer.write(path)
        loaded = json.loads(path.read_text())
        assert loaded == tracer.to_dict()

    def test_pickle_round_trip(self):
        tracer = Tracer()
        with tracer.span("week", week=0):
            with tracer.span("assess"):
                pass
        clone = pickle.loads(pickle.dumps(tracer))
        assert clone.to_dict() == tracer.to_dict()
        # The clone keeps working as a tracer.
        with clone.span("week", week=1):
            pass
        assert len(clone.roots) == 2


class TestTraceHelper:
    def test_trace_on_a_tracer(self):
        tracer = Tracer()
        with trace("step", tracer=tracer, k="v") as span:
            pass
        assert tracer.roots == [span]
        assert span.fields == {"k": "v"}

    def test_trace_without_tracer_is_standalone(self):
        with trace("step") as span:
            pass
        assert span.finished
