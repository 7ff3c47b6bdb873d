"""Dependency-free metrics primitives for the detection pipeline.

The paper's headline results are operational — theft mitigated per week,
false-positive investigation cost — yet a control-centre service cannot
report either without counting.  This module supplies the counting
machinery: a :class:`MetricsRegistry` of labelled counters, gauges, and
fixed-bucket histograms, exportable as Prometheus text exposition or a
JSON snapshot, mergeable across process boundaries (the parallel
evaluation runner ships per-worker snapshots back to the parent), and
picklable so a checkpointed monitoring service resumes with its counters
intact.

Design constraints, in order:

* **stdlib only** — the container must not need ``prometheus_client``;
* **cheap on the hot path** — one dict lookup and a float add per
  counter increment, no locks (the pipeline is single-threaded per
  process; cross-process aggregation goes through snapshots);
* **deterministic output** — exposition renders families in
  registration order and samples in first-touch order, so two runs that
  perform the same work byte-compare equal.

A process-wide *global* registry (:func:`global_registry`) exists for
instrumentation points that have no natural owner to thread a registry
through — detector ``fit``/``score_week`` latencies, recorded from deep
inside the template methods.  Components that *do* own their telemetry
(the monitoring service, the evaluation runners) carry their own
registry and temporarily install it with :func:`use_registry` around the
code they account for.
"""

from __future__ import annotations

import json
import math
import os
import re
from contextlib import contextmanager
from functools import partial
from typing import Callable, Iterable, Iterator, Mapping

import numpy as np

from repro.errors import ConfigurationError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS",
    "FRACTION_BUCKETS",
    "global_registry",
    "set_global_registry",
    "use_registry",
    "parse_prometheus",
]

#: Default histogram buckets for sub-second latencies (seconds).
DEFAULT_LATENCY_BUCKETS: tuple[float, ...] = (
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)

#: Buckets for quantities in [0, 1] such as coverage fractions.
FRACTION_BUCKETS: tuple[float, ...] = (
    0.1,
    0.2,
    0.3,
    0.4,
    0.5,
    0.6,
    0.7,
    0.8,
    0.9,
    1.0,
)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise ConfigurationError(f"invalid metric name {name!r}")
    return name


def _check_label_names(labels: tuple[str, ...]) -> tuple[str, ...]:
    for label in labels:
        if not _LABEL_NAME_RE.match(label):
            raise ConfigurationError(f"invalid label name {label!r}")
    if len(set(labels)) != len(labels):
        raise ConfigurationError(f"duplicate label names in {labels!r}")
    return labels


def _escape_label_value(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _format_value(value: float) -> str:
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if math.isnan(value):
        return "NaN"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


class _MetricFamily:
    """Shared plumbing for one named metric with a fixed label schema."""

    kind = "untyped"

    def __init__(self, name: str, help: str, label_names: tuple[str, ...]):
        self.name = _check_name(name)
        self.help = help
        self.label_names = _check_label_names(tuple(label_names))
        # Insertion-ordered: first-touch order is the exposition order.
        self._samples: dict[tuple[str, ...], object] = {}

    def _key(self, labels: Mapping[str, object]) -> tuple[str, ...]:
        if set(labels) != set(self.label_names):
            raise ConfigurationError(
                f"metric {self.name!r} expects labels {self.label_names}, "
                f"got {tuple(sorted(labels))}"
            )
        return tuple(str(labels[name]) for name in self.label_names)

    def label_sets(self) -> list[dict[str, str]]:
        """Every label combination this family has recorded."""
        return [
            dict(zip(self.label_names, key)) for key in self._samples
        ]


class Counter(_MetricFamily):
    """Monotonically increasing count, optionally labelled."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        if amount < 0:
            raise ConfigurationError(
                f"counter {self.name!r} cannot decrease (inc {amount})"
            )
        key = self._key(labels)
        self._samples[key] = self._samples.get(key, 0.0) + float(amount)

    def value(self, **labels: object) -> float:
        return float(self._samples.get(self._key(labels), 0.0))


class Gauge(_MetricFamily):
    """A value that can go up and down (current states, fractions)."""

    kind = "gauge"

    def set(self, value: float, **labels: object) -> None:
        self._samples[self._key(labels)] = float(value)

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        key = self._key(labels)
        self._samples[key] = self._samples.get(key, 0.0) + float(amount)

    def value(self, **labels: object) -> float:
        return float(self._samples.get(self._key(labels), 0.0))


class _HistogramSample:
    __slots__ = ("bucket_counts", "sum", "count")

    def __init__(self, n_buckets: int) -> None:
        self.bucket_counts = [0] * n_buckets  # per-bucket, not cumulative
        self.sum = 0.0
        self.count = 0


def _observe_into(
    buckets: tuple[float, ...], sample: _HistogramSample, value: float
) -> None:
    for i, bound in enumerate(buckets):
        if value <= bound:
            sample.bucket_counts[i] += 1
            break
    # Values above the last bound land only in the implicit +Inf
    # bucket, i.e. in `count`.
    sample.sum += value
    sample.count += 1


class Histogram(_MetricFamily):
    """Fixed-bucket histogram (cumulative buckets only at exposition)."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        label_names: tuple[str, ...],
        buckets: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS,
    ) -> None:
        super().__init__(name, help, label_names)
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ConfigurationError(
                f"histogram {name!r} needs at least one bucket"
            )
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ConfigurationError(
                f"histogram {name!r} buckets must strictly increase: {bounds}"
            )
        if any(math.isinf(b) or math.isnan(b) for b in bounds):
            raise ConfigurationError(
                f"histogram {name!r} buckets must be finite "
                "(+Inf is implicit): {bounds}"
            )
        self.buckets = bounds

    def _sample(self, labels: Mapping[str, object]) -> _HistogramSample:
        key = self._key(labels)
        sample = self._samples.get(key)
        if sample is None:
            sample = _HistogramSample(len(self.buckets))
            self._samples[key] = sample
        return sample  # type: ignore[return-value]

    def observe(self, value: float, **labels: object) -> None:
        _observe_into(self.buckets, self._sample(labels), float(value))

    def bind(self, **labels: object) -> Callable[[float], None]:
        """:meth:`observe` for one label set, resolved once.

        The sample is created here, so bind on first use: a label set
        bound but never observed would export a zero-count series.
        """
        return partial(_observe_into, self.buckets, self._sample(labels))

    def observe_many(self, values: Iterable[float], **labels: object) -> None:
        """:meth:`observe` every value, in order, with one bucket search.

        Bucket placement is ``value <= bound`` as in :meth:`observe` (a
        NaN or a value above the last bound lands only in ``+Inf``), and
        the sum accumulates in the same order, so the exposition is
        byte-identical to observing the values one by one.
        """
        batch = np.fromiter(values, dtype=float)
        if not batch.size:
            return
        sample = self._sample(labels)
        # side="left" finds the first bound >= value; NaN sorts past
        # every bound, so it lands in the implicit +Inf bucket too.
        slots = np.searchsorted(self.buckets, batch, side="left")
        placed = np.bincount(slots, minlength=len(self.buckets) + 1)
        for i, n in enumerate(placed[: len(self.buckets)].tolist()):
            sample.bucket_counts[i] += n
        total = sample.sum
        for value in batch.tolist():
            total += value
        sample.sum = total
        sample.count += int(batch.size)

    def count(self, **labels: object) -> int:
        sample = self._samples.get(self._key(labels))
        return sample.count if sample is not None else 0  # type: ignore[union-attr]

    def sum(self, **labels: object) -> float:
        sample = self._samples.get(self._key(labels))
        return sample.sum if sample is not None else 0.0  # type: ignore[union-attr]

    def cumulative_buckets(self, **labels: object) -> list[tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` pairs ending at ``+Inf``."""
        sample = self._samples.get(self._key(labels))
        counts = (
            sample.bucket_counts  # type: ignore[union-attr]
            if sample is not None
            else [0] * len(self.buckets)
        )
        total_count = sample.count if sample is not None else 0  # type: ignore[union-attr]
        out: list[tuple[float, int]] = []
        running = 0
        for bound, count in zip(self.buckets, counts):
            running += count
            out.append((bound, running))
        out.append((math.inf, total_count))
        return out


class MetricsRegistry:
    """A namespace of metric families with export, merge, and pickling.

    Families are created lazily and idempotently: asking twice for the
    same name returns the same object; asking with a conflicting kind or
    label schema raises :class:`~repro.errors.ConfigurationError`.
    """

    def __init__(self) -> None:
        self._families: dict[str, _MetricFamily] = {}

    # ------------------------------------------------------------------
    # Family accessors
    # ------------------------------------------------------------------

    def _family(
        self,
        cls: type,
        name: str,
        help: str,
        labels: tuple[str, ...],
        **kwargs: object,
    ) -> _MetricFamily:
        family = self._families.get(name)
        if family is None:
            family = cls(name, help, tuple(labels), **kwargs)
            self._families[name] = family
            return family
        if not isinstance(family, cls):
            raise ConfigurationError(
                f"metric {name!r} already registered as {family.kind}"
            )
        if family.label_names != tuple(labels):
            raise ConfigurationError(
                f"metric {name!r} already registered with labels "
                f"{family.label_names}, got {tuple(labels)}"
            )
        return family

    def counter(
        self, name: str, help: str = "", labels: tuple[str, ...] = ()
    ) -> Counter:
        return self._family(Counter, name, help, labels)  # type: ignore[return-value]

    def gauge(
        self, name: str, help: str = "", labels: tuple[str, ...] = ()
    ) -> Gauge:
        return self._family(Gauge, name, help, labels)  # type: ignore[return-value]

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: tuple[str, ...] = (),
        buckets: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS,
    ) -> Histogram:
        family = self._family(Histogram, name, help, labels, buckets=buckets)
        if family.buckets != tuple(float(b) for b in buckets):  # type: ignore[attr-defined]
            raise ConfigurationError(
                f"histogram {name!r} already registered with buckets "
                f"{family.buckets}"  # type: ignore[attr-defined]
            )
        return family  # type: ignore[return-value]

    def families(self) -> tuple[_MetricFamily, ...]:
        return tuple(self._families.values())

    def __contains__(self, name: str) -> bool:
        return name in self._families

    # ------------------------------------------------------------------
    # Snapshot / merge
    # ------------------------------------------------------------------

    def snapshot(self) -> dict:
        """A pure-data (JSON-able) view of every family and sample."""
        families = []
        for family in self._families.values():
            entry: dict = {
                "name": family.name,
                "kind": family.kind,
                "help": family.help,
                "label_names": list(family.label_names),
            }
            if isinstance(family, Histogram):
                entry["buckets"] = list(family.buckets)
                entry["samples"] = [
                    {
                        "labels": list(key),
                        "bucket_counts": list(s.bucket_counts),
                        "sum": s.sum,
                        "count": s.count,
                    }
                    for key, s in family._samples.items()
                ]
            else:
                entry["samples"] = [
                    {"labels": list(key), "value": value}
                    for key, value in family._samples.items()
                ]
            families.append(entry)
        return {"families": families}

    def merge_snapshot(self, snapshot: Mapping) -> None:
        """Fold a :meth:`snapshot` into this registry.

        Counters and histograms add; gauges take the incoming value
        (last write wins — a gauge is a statement of current state, not
        an accumulation).
        """
        for entry in snapshot["families"]:
            labels = tuple(entry["label_names"])
            kind = entry["kind"]
            if kind == "counter":
                family = self.counter(entry["name"], entry["help"], labels)
                for sample in entry["samples"]:
                    family.inc(
                        sample["value"], **dict(zip(labels, sample["labels"]))
                    )
            elif kind == "gauge":
                family = self.gauge(entry["name"], entry["help"], labels)
                for sample in entry["samples"]:
                    family.set(
                        sample["value"], **dict(zip(labels, sample["labels"]))
                    )
            elif kind == "histogram":
                family = self.histogram(
                    entry["name"],
                    entry["help"],
                    labels,
                    buckets=tuple(entry["buckets"]),
                )
                for sample in entry["samples"]:
                    target = family._sample(
                        dict(zip(labels, sample["labels"]))
                    )
                    for i, count in enumerate(sample["bucket_counts"]):
                        target.bucket_counts[i] += count
                    target.sum += sample["sum"]
                    target.count += sample["count"]
            else:  # pragma: no cover - snapshots only carry known kinds
                raise ConfigurationError(f"unknown metric kind {kind!r}")

    def merge(self, other: "MetricsRegistry") -> None:
        self.merge_snapshot(other.snapshot())

    def totals(self) -> dict[tuple[str, tuple[str, ...]], float]:
        """Deterministic totals: counter values and histogram counts.

        Latency *sums* vary run to run; the totals map deliberately
        excludes them so serial and parallel runs of the same work
        compare equal.
        """
        out: dict[tuple[str, tuple[str, ...]], float] = {}
        for family in self._families.values():
            if isinstance(family, Counter):
                for key, value in family._samples.items():
                    out[(family.name, key)] = float(value)
            elif isinstance(family, Histogram):
                for key, sample in family._samples.items():
                    out[(family.name + "_count", key)] = float(sample.count)
        return out

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------

    def to_prometheus(self) -> str:
        """Render the registry in Prometheus text exposition format."""
        lines: list[str] = []
        for family in self._families.values():
            if family.help:
                lines.append(
                    f"# HELP {family.name} {_escape_help(family.help)}"
                )
            lines.append(f"# TYPE {family.name} {family.kind}")
            if isinstance(family, Histogram):
                for key in family._samples:
                    labels = dict(zip(family.label_names, key))
                    for bound, cumulative in family.cumulative_buckets(
                        **labels
                    ):
                        le = "+Inf" if math.isinf(bound) else _format_value(bound)
                        lines.append(
                            f"{family.name}_bucket"
                            f"{_render_labels(labels, extra=('le', le))} "
                            f"{cumulative}"
                        )
                    lines.append(
                        f"{family.name}_sum{_render_labels(labels)} "
                        f"{_format_value(family.sum(**labels))}"
                    )
                    lines.append(
                        f"{family.name}_count{_render_labels(labels)} "
                        f"{family.count(**labels)}"
                    )
            else:
                for key, value in family._samples.items():
                    labels = dict(zip(family.label_names, key))
                    lines.append(
                        f"{family.name}{_render_labels(labels)} "
                        f"{_format_value(float(value))}"  # type: ignore[arg-type]
                    )
        return "\n".join(lines) + ("\n" if lines else "")

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.snapshot(), indent=indent, sort_keys=False)

    def write_prometheus(self, path: str | os.PathLike) -> None:
        with open(os.fspath(path), "w", encoding="utf-8") as handle:
            handle.write(self.to_prometheus())

    def write_json(self, path: str | os.PathLike) -> None:
        with open(os.fspath(path), "w", encoding="utf-8") as handle:
            handle.write(self.to_json())
            handle.write("\n")


def _render_labels(
    labels: Mapping[str, str], extra: tuple[str, str] | None = None
) -> str:
    pairs = [
        f'{name}="{_escape_label_value(str(value))}"'
        for name, value in labels.items()
    ]
    if extra is not None:
        pairs.append(f'{extra[0]}="{_escape_label_value(extra[1])}"')
    if not pairs:
        return ""
    return "{" + ",".join(pairs) + "}"


# ----------------------------------------------------------------------
# Global registry
# ----------------------------------------------------------------------

_GLOBAL = MetricsRegistry()


def global_registry() -> MetricsRegistry:
    """The process-wide registry used by ownerless instrumentation."""
    return _GLOBAL


def set_global_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Install ``registry`` as the process-wide one; returns the old."""
    global _GLOBAL
    previous = _GLOBAL
    _GLOBAL = registry
    return previous


@contextmanager
def use_registry(registry: MetricsRegistry) -> Iterator[MetricsRegistry]:
    """Temporarily route global-registry instrumentation to ``registry``."""
    previous = set_global_registry(registry)
    try:
        yield registry
    finally:
        set_global_registry(previous)


# ----------------------------------------------------------------------
# Exposition parsing (validation for tests and CI smoke checks)
# ----------------------------------------------------------------------

_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?"
    r"\s+(?P<value>\S+)$"
)
_LABEL_PAIR_RE = re.compile(
    r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"'
)


def _unescape_label_value(value: str) -> str:
    """Invert :func:`_escape_label_value`, scanning left to right.

    Sequential ``str.replace`` passes corrupt nested escapes — a label
    holding a literal backslash-then-n escapes to ``\\\\n``, which a
    ``\\n``-first replace would wrongly turn into backslash-newline —
    so each escape sequence must be consumed exactly once, in order.
    """
    out: list[str] = []
    i = 0
    while i < len(value):
        ch = value[i]
        if ch == "\\" and i + 1 < len(value):
            nxt = value[i + 1]
            if nxt == "n":
                out.append("\n")
                i += 2
                continue
            if nxt in ('"', "\\"):
                out.append(nxt)
                i += 2
                continue
        out.append(ch)
        i += 1
    return "".join(out)


def parse_prometheus(text: str) -> dict[str, list[tuple[dict[str, str], float]]]:
    """Parse (and thereby validate) Prometheus text exposition.

    Returns ``{metric_name: [(labels, value), ...]}`` with histogram
    series under their ``_bucket``/``_sum``/``_count`` names.  Raises
    :class:`ValueError` on any malformed line, and verifies the
    histogram invariants: bucket counts are cumulative and the ``+Inf``
    bucket equals ``_count``.
    """
    series: dict[str, list[tuple[dict[str, str], float]]] = {}
    histograms: set[str] = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) < 3 or parts[1] not in ("HELP", "TYPE"):
                raise ValueError(f"line {lineno}: malformed comment {line!r}")
            if parts[1] == "TYPE" and parts[3].strip() == "histogram":
                histograms.add(parts[2])
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ValueError(f"line {lineno}: malformed sample {line!r}")
        labels: dict[str, str] = {}
        raw = match.group("labels")
        if raw:
            consumed = 0
            for pair in _LABEL_PAIR_RE.finditer(raw):
                labels[pair.group(1)] = _unescape_label_value(pair.group(2))
                consumed = pair.end()
            remainder = raw[consumed:].strip(", ")
            if remainder:
                raise ValueError(
                    f"line {lineno}: malformed labels {raw!r}"
                )
        value_text = match.group("value")
        if value_text == "+Inf":
            value = math.inf
        elif value_text == "-Inf":
            value = -math.inf
        else:
            try:
                value = float(value_text)
            except ValueError:
                raise ValueError(
                    f"line {lineno}: malformed value {value_text!r}"
                ) from None
        series.setdefault(match.group("name"), []).append((labels, value))
    _check_histogram_invariants(series, histograms)
    return series


def _check_histogram_invariants(
    series: Mapping[str, list[tuple[dict[str, str], float]]],
    histograms: set[str],
) -> None:
    for name in histograms:
        buckets = series.get(f"{name}_bucket", [])
        counts = series.get(f"{name}_count", [])
        if f"{name}_sum" not in series:
            raise ValueError(f"histogram {name!r} is missing _sum")
        if not buckets or not counts:
            raise ValueError(f"histogram {name!r} is missing series")
        per_labelset: dict[tuple, list[tuple[float, float]]] = {}
        for labels, value in buckets:
            le = labels.get("le")
            if le is None:
                raise ValueError(f"histogram {name!r} bucket missing le")
            bound = math.inf if le == "+Inf" else float(le)
            key = tuple(sorted((k, v) for k, v in labels.items() if k != "le"))
            per_labelset.setdefault(key, []).append((bound, value))
        count_by_key = {
            tuple(sorted(labels.items())): value for labels, value in counts
        }
        for key, pairs in per_labelset.items():
            pairs.sort(key=lambda p: p[0])
            cumulative = [v for _, v in pairs]
            if any(b > a for a, b in zip(cumulative[1:], cumulative)):
                raise ValueError(
                    f"histogram {name!r} buckets are not cumulative"
                )
            if pairs[-1][0] != math.inf:
                raise ValueError(f"histogram {name!r} lacks a +Inf bucket")
            if key not in count_by_key:
                raise ValueError(
                    f"histogram {name!r} bucket labelset {key} has no _count"
                )
            if pairs[-1][1] != count_by_key[key]:
                raise ValueError(
                    f"histogram {name!r}: +Inf bucket {pairs[-1][1]} "
                    f"!= _count {count_by_key[key]}"
                )
