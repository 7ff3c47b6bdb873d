"""Tests for cross-tracer trace propagation and stitching."""

import pytest

from repro.errors import ConfigurationError
from repro.observability.tracing import TraceContext, Tracer, stitch_traces


class TestTraceContext:
    def test_round_trips_through_dict(self):
        context = TraceContext(trace_id="fleet:1", span_id="fleet:2")
        assert TraceContext.from_dict(context.to_dict()) == context

    def test_from_dict_rejects_malformed_payloads(self):
        with pytest.raises(ConfigurationError, match="trace context"):
            TraceContext.from_dict({"trace_id": "only-half"})
        with pytest.raises(ConfigurationError, match="trace context"):
            TraceContext.from_dict(None)

    def test_span_exposes_its_context(self):
        tracer = Tracer(name="t")
        with tracer.span("work") as span:
            context = span.context
        assert context is not None
        assert context.span_id == span.span_id
        assert context.trace_id == span.trace_id


class TestSpanIdentity:
    def test_ids_are_deterministic_per_tracer(self):
        tracer = Tracer(name="shard-0001")
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            pass
        assert [s.span_id for s in tracer.spans()] == [
            "shard-0001:1",
            "shard-0001:2",
        ]

    def test_root_span_starts_its_own_trace(self):
        tracer = Tracer(name="t")
        with tracer.span("root") as span:
            assert span.trace_id == span.span_id
            assert span.parent_id is None

    def test_nested_span_inherits_the_enclosing_trace(self):
        tracer = Tracer(name="t")
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                assert inner.trace_id == outer.trace_id
                assert inner.parent_id == outer.span_id

    def test_current_context_tracks_the_innermost_span(self):
        tracer = Tracer(name="t")
        assert tracer.active is None
        with tracer.span("outer"):
            with tracer.span("inner") as inner:
                assert tracer.active.context == inner.context
        assert tracer.active is None

    def test_explicit_parent_joins_the_remote_trace(self):
        fleet = Tracer(name="fleet")
        shard = Tracer(name="shard")
        with fleet.span("handoff") as handoff:
            context = handoff.context
        with shard.span("adopt", parent=context) as adopt:
            pass
        assert adopt.trace_id == handoff.trace_id
        assert adopt.parent_id == handoff.span_id

    def test_end_span_enforces_innermost_first(self):
        tracer = Tracer(name="t")
        outer = tracer.start_span("outer")
        tracer.start_span("inner")
        with pytest.raises(ConfigurationError, match="innermost"):
            tracer.end_span(outer)


class TestStitchTraces:
    def _handoff_forest(self):
        """A fleet-coordinated handoff with per-shard work: 3 tracers."""
        fleet = Tracer(name="fleet")
        src = Tracer(name="shard-a")
        dst = Tracer(name="shard-b")
        root = fleet.start_span("shard_handoff")
        with fleet.span("install"):
            context = fleet.active.context
            with src.span("extract_consumer", parent=context, consumer="c1"):
                pass
            with dst.span("adopt_consumer", parent=context, consumer="c1"):
                pass
        fleet.end_span(root)
        return fleet, src, dst

    def test_one_stitched_tree_across_tracers(self):
        fleet, src, dst = self._handoff_forest()
        roots = stitch_traces([fleet, src, dst])
        assert len(roots) == 1
        root = roots[0]
        assert root["name"] == "shard_handoff"
        (install,) = root["children"]
        assert install["name"] == "install"
        assert sorted(c["name"] for c in install["children"]) == [
            "adopt_consumer",
            "extract_consumer",
        ]

    def test_stitched_nodes_are_json_ready(self):
        import json

        fleet, src, dst = self._handoff_forest()
        payload = json.dumps(stitch_traces([fleet, src, dst]))
        assert "extract_consumer" in payload

    def test_trace_id_filter_keeps_one_trace(self):
        fleet, src, dst = self._handoff_forest()
        other = Tracer(name="other")
        with other.span("unrelated"):
            pass
        handoff_trace = fleet.roots[0].trace_id
        roots = stitch_traces(
            [fleet, src, dst, other], trace_id=handoff_trace
        )
        assert [node["name"] for node in roots] == ["shard_handoff"]

    def test_orphan_parent_link_becomes_a_root(self):
        # The parent tracer's spans are not part of the stitch: the
        # child keeps its parent_id but surfaces as a root.
        shard = Tracer(name="shard")
        context = TraceContext(trace_id="fleet:1", span_id="fleet:1")
        with shard.span("adopt", parent=context):
            pass
        (root,) = stitch_traces([shard])
        assert root["name"] == "adopt"
        assert root["parent_id"] == "fleet:1"

    def test_anonymous_spans_stitch_as_standalone_roots(self):
        tracer = Tracer(name="t")
        with tracer.span("normal"):
            pass
        tracer.roots[0].span_id = None  # a span predating id assignment
        (root,) = stitch_traces([tracer])
        assert root["name"] == "normal"
        assert root["span_id"] is None
