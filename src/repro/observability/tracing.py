"""Span tracing for the detection pipeline.

Answers the latency questions a flat histogram cannot: *of one week's
processing, how much went to training versus scoring versus the balance
audit?*  A :class:`Tracer` hands out nested :class:`Span` context
managers timed with :func:`time.perf_counter`; the finished spans form a
trace tree exportable as JSON.

Spans are plain picklable data, so a tracer checkpointed with the
monitoring service restores bit-identically (durations are
``perf_counter`` intervals — meaningful as durations, not as absolute
wall-clock times).

Cross-process / cross-shard stitching
-------------------------------------
Every span carries a ``(trace_id, span_id, parent_id)`` identity, and a
:class:`TraceContext` is the serializable half of that identity: it can
ride a shard-handoff packet or a fleet command as plain JSON, then be
passed as ``parent=`` when the receiving monitor opens its own span.
:func:`stitch_traces` joins the span forests of many tracers back into
one tree by following those links — a fleet handoff shows up as a single
root with its five phases and the per-shard extract/adopt work nested
underneath, instead of per-tracer fragments.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping

from repro.errors import ConfigurationError

__all__ = ["Span", "TraceContext", "Tracer", "stitch_traces", "trace"]


@dataclass(frozen=True)
class TraceContext:
    """The serializable identity of a span, for cross-tracer parenting.

    A context is deliberately tiny — two strings — so it can ride any
    payload (handoff manifests, WAL records, fleet commands) without
    dragging the span tree along.  Deserialize on the far side and pass
    as ``parent=`` to :meth:`Tracer.span` / :meth:`Tracer.start_span`.
    """

    trace_id: str
    span_id: str

    def to_dict(self) -> dict:
        return {"trace_id": self.trace_id, "span_id": self.span_id}

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "TraceContext":
        try:
            trace_id = payload["trace_id"]
            span_id = payload["span_id"]
        except (KeyError, TypeError):
            raise ConfigurationError(
                f"not a trace context payload: {payload!r}"
            ) from None
        return cls(trace_id=str(trace_id), span_id=str(span_id))


@dataclass
class Span:
    """One timed operation, possibly with nested child spans."""

    name: str
    fields: dict = field(default_factory=dict)
    start: float = 0.0
    end: float | None = None
    children: list["Span"] = field(default_factory=list)
    trace_id: str | None = None
    span_id: str | None = None
    parent_id: str | None = None

    @property
    def finished(self) -> bool:
        return self.end is not None

    @property
    def duration(self) -> float:
        """Elapsed seconds (up to now for a still-open span)."""
        end = self.end if self.end is not None else time.perf_counter()
        return end - self.start

    @property
    def context(self) -> TraceContext | None:
        """This span's identity as a serializable context (or ``None``)."""
        if self.trace_id is None or self.span_id is None:
            return None
        return TraceContext(trace_id=self.trace_id, span_id=self.span_id)

    def to_dict(self) -> dict:
        payload = {
            "name": self.name,
            "duration_s": self.duration,
            "fields": dict(self.fields),
            "children": [child.to_dict() for child in self.children],
        }
        if self.span_id is not None:
            payload["trace_id"] = self.trace_id
            payload["span_id"] = self.span_id
            payload["parent_id"] = self.parent_id
        return payload

    def walk(self) -> Iterator["Span"]:
        """Yield this span and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()


class Tracer:
    """Collects a forest of spans; nesting follows ``with`` structure.

    ``name`` seeds deterministic span ids (``"<name>:<n>"``) so traces
    from distinct tracers — one per shard, one for the fleet — never
    collide when stitched, without any randomness (spans stay
    replay-stable across checkpoint/restore).
    """

    def __init__(self, name: str = "trace") -> None:
        self.name = name
        self.roots: list[Span] = []
        self._stack: list[Span] = []
        self._id_count = 0

    def _new_id(self) -> str:
        self._id_count += 1
        return f"{self.name}:{self._id_count}"

    def _open(
        self, name: str, parent: TraceContext | None, fields: dict
    ) -> Span:
        span = Span(name=name, fields=fields)
        span.span_id = self._new_id()
        enclosing = self._stack[-1] if self._stack else None
        if parent is not None:
            # Explicit cross-tracer parent: record the link but keep the
            # span a structural root here — stitching re-homes it.
            span.trace_id = parent.trace_id
            span.parent_id = parent.span_id
            if enclosing is not None:
                enclosing.children.append(span)
            else:
                self.roots.append(span)
        elif enclosing is not None:
            span.trace_id = enclosing.trace_id or enclosing.span_id
            span.parent_id = enclosing.span_id
            enclosing.children.append(span)
        else:
            span.trace_id = span.span_id
            self.roots.append(span)
        self._stack.append(span)
        span.start = time.perf_counter()
        return span

    @contextmanager
    def span(
        self,
        name: str,
        parent: TraceContext | None = None,
        **fields: object,
    ) -> Iterator[Span]:
        """Open a child of the innermost active span (or a new root).

        ``parent`` grafts the span onto a remote trace: the span joins
        that trace's id space even though it lives in this tracer.
        """
        span = self._open(name, parent, dict(fields))
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def start_span(
        self,
        name: str,
        parent: TraceContext | None = None,
        **fields: object,
    ) -> Span:
        """Open a span that outlives the current call frame.

        For operations whose start and end live in different methods —
        a shard handoff's phases, say.  Pair with :meth:`end_span`;
        spans must close innermost-first.
        """
        return self._open(name, parent, dict(fields))

    def end_span(self, span: Span) -> None:
        """Close a span opened with :meth:`start_span`."""
        if not self._stack or self._stack[-1] is not span:
            raise ConfigurationError(
                f"span {span.name!r} is not the innermost open span"
            )
        span.end = time.perf_counter()
        self._stack.pop()

    @property
    def active(self) -> Span | None:
        return self._stack[-1] if self._stack else None

    def spans(self) -> Iterator[Span]:
        """Every recorded span, depth-first across all roots."""
        for root in self.roots:
            yield from root.walk()

    def to_dict(self) -> dict:
        return {"spans": [root.to_dict() for root in self.roots]}

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def write(self, path: str | os.PathLike) -> None:
        with open(os.fspath(path), "w", encoding="utf-8") as handle:
            handle.write(self.to_json())
            handle.write("\n")


def stitch_traces(
    tracers: Iterable[Tracer], trace_id: str | None = None
) -> list[dict]:
    """Join span forests from many tracers into cross-tracer trees.

    Spans are re-homed by their ``parent_id`` links, so a span recorded
    on shard B with a :class:`TraceContext` parent from the fleet
    coordinator nests under the coordinator's span.  Returns the list of
    stitched root nodes (plain dicts, JSON-ready); pass ``trace_id`` to
    keep only one trace.  Spans predating id assignment (``span_id is
    None``) stitch as standalone roots.
    """
    spans: list[Span] = []
    for tracer in tracers:
        spans.extend(tracer.spans())
    nodes: dict[str, dict] = {}
    anonymous: list[dict] = []
    for span in spans:
        node = {
            "name": span.name,
            "duration_s": span.duration,
            "fields": dict(span.fields),
            "trace_id": span.trace_id,
            "span_id": span.span_id,
            "parent_id": span.parent_id,
            "start": span.start,
            "children": [],
        }
        if span.span_id is None:
            anonymous.append(node)
        else:
            nodes[span.span_id] = node
    roots: list[dict] = []
    for node in nodes.values():
        parent = nodes.get(node["parent_id"]) if node["parent_id"] else None
        if parent is not None:
            parent["children"].append(node)
        else:
            roots.append(node)
    roots.extend(anonymous)
    if trace_id is not None:
        roots = [node for node in roots if node["trace_id"] == trace_id]
    # Child order within one tracer follows perf_counter starts; across
    # tracers the clocks are process-local, so order is best-effort.
    for node in list(nodes.values()) + anonymous:
        node["children"].sort(key=lambda child: child["start"])
        del node["start"]
    return roots


@contextmanager
def trace(name: str, tracer: Tracer | None = None, **fields: object) -> Iterator[Span]:
    """Convenience: a one-off span on ``tracer`` (or a throwaway one)."""
    owner = tracer if tracer is not None else Tracer()
    with owner.span(name, **fields) as span:
        yield span
