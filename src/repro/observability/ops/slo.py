"""Service-level objectives with multi-window error-budget burn rates.

Detection latency is the defense's currency: a theft verdict that
arrives a week late is a week of compounding loss.  This module turns
the fleet's raw telemetry into the operator question that actually
pages someone — *are we spending our error budget faster than we can
afford?*

An :class:`SLObjective` names a target fraction of *good* events and
how to count good/total from a :class:`~repro.observability.metrics.
MetricsRegistry`:

* ``latency`` — a histogram family; good = observations at or under
  ``threshold`` seconds (resolved against the cumulative buckets, so a
  p99 objective is "99% of cycles complete within the bound");
* ``availability`` — a counter family; bad = samples whose labels match
  ``bad_labels`` (e.g. ``status="gap"`` readings), good = the rest;
* ``staleness`` — a gauge family; each :meth:`SLOTracker.observe` is
  one compliance check per label set, failing where the gauge exceeds
  ``threshold`` (e.g. a shard's verdict lag in cycles).

:class:`SLOTracker` keeps a bounded history of cumulative good/total
points and reports burn rates over a short and a long window —
the classic multi-window alert shape: the short window catches a fast
burn, the long window confirms it is not a blip.  Burn rate 1.0 means
"spending exactly the budget"; >1 means the objective will be violated
before the period ends if the rate holds.
"""

from __future__ import annotations

import json
import os
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.observability.metrics import MetricsRegistry

__all__ = [
    "SLObjective",
    "SLOReport",
    "SLOTracker",
    "default_fleet_objectives",
]

_KINDS = ("latency", "availability", "staleness")


@dataclass(frozen=True)
class SLObjective:
    """One objective: a target fraction of good events and how to count.

    ``target`` is the good fraction (0.999 = "three nines"); the error
    budget is ``1 - target``.  ``metric`` names the family to read;
    ``threshold`` is the latency bound in seconds (``latency``) or the
    maximum allowed gauge value (``staleness``); ``bad_labels`` lists
    ``(label, value)`` pairs whose samples count as bad
    (``availability``).
    """

    name: str
    description: str
    target: float
    kind: str
    metric: str
    threshold: float = 0.0
    bad_labels: tuple[tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        if not 0.0 < self.target < 1.0:
            raise ConfigurationError(
                f"objective {self.name!r}: target must be in (0, 1), "
                f"got {self.target}"
            )
        if self.kind not in _KINDS:
            raise ConfigurationError(
                f"objective {self.name!r}: kind must be one of {_KINDS}, "
                f"got {self.kind!r}"
            )

    @property
    def error_budget(self) -> float:
        return 1.0 - self.target

    def counts(self, registry: "MetricsRegistry") -> tuple[float, float]:
        """Cumulative ``(good, total)`` for this objective, right now."""
        family = None
        for candidate in registry.families():
            if candidate.name == self.metric:
                family = candidate
                break
        if family is None:
            return (0.0, 0.0)
        if self.kind == "latency":
            good = total = 0.0
            for labels in family.label_sets():
                for bound, cumulative in family.cumulative_buckets(**labels):
                    if bound >= self.threshold:
                        good += cumulative
                        break
                total += family.count(**labels)
            return (good, total)
        if self.kind == "availability":
            bad = total = 0.0
            bad_pairs = set(self.bad_labels)
            for labels in family.label_sets():
                value = family.value(**labels)
                total += value
                if any(labels.get(k) == v for k, v in bad_pairs):
                    bad += value
            return (total - bad, total)
        # staleness: one compliance check per label set per observation.
        good = total = 0.0
        for labels in family.label_sets():
            total += 1.0
            if family.value(**labels) <= self.threshold:
                good += 1.0
        return (good, total)


@dataclass(frozen=True)
class SLOReport:
    """Point-in-time SLO standing across every tracked objective."""

    objectives: tuple[dict, ...]
    healthy: bool
    short_window: int
    long_window: int

    def objective(self, name: str) -> dict:
        for entry in self.objectives:
            if entry["name"] == name:
                return entry
        raise KeyError(f"no objective {name!r} in this report")

    def to_dict(self) -> dict:
        return {
            "short_window": self.short_window,
            "long_window": self.long_window,
            "healthy": self.healthy,
            "objectives": [dict(entry) for entry in self.objectives],
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def write(self, path: str | os.PathLike) -> None:
        from repro.storage.io import atomic_write_json

        atomic_write_json(path, self.to_dict(), site="export.slo")


@dataclass
class _Series:
    """Bounded history of cumulative (good, total) points."""

    points: deque = field(default_factory=deque)


class SLOTracker:
    """Tracks objectives over time and computes burn rates.

    ``short_window`` / ``long_window`` are counted in *observations*
    (calls to :meth:`observe`), not wall seconds — the pipeline is
    simulation-clocked, so callers observe at a meaningful cadence
    (per cycle or per week) and windows inherit that unit.
    """

    def __init__(
        self,
        objectives: Iterable[SLObjective],
        short_window: int = 12,
        long_window: int = 60,
    ) -> None:
        self.objectives = tuple(objectives)
        if not self.objectives:
            raise ConfigurationError("SLOTracker needs at least one objective")
        names = [o.name for o in self.objectives]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate objective names: {names}")
        if not 0 < short_window <= long_window:
            raise ConfigurationError(
                f"need 0 < short_window <= long_window, got "
                f"{short_window}/{long_window}"
            )
        self.short_window = int(short_window)
        self.long_window = int(long_window)
        self._series: dict[str, _Series] = {
            o.name: _Series(points=deque(maxlen=self.long_window + 1))
            for o in self.objectives
        }
        self.observations = 0

    def observe(self, registry: "MetricsRegistry") -> None:
        """Record one compliance point for every objective."""
        for objective in self.objectives:
            good, total = objective.counts(registry)
            series = self._series[objective.name]
            if objective.kind == "staleness":
                # Gauges are levels, not counters: accumulate checks so
                # the series is cumulative like the other kinds.
                prev_good, prev_total = (
                    series.points[-1] if series.points else (0.0, 0.0)
                )
                good, total = prev_good + good, prev_total + total
            series.points.append((good, total))
        self.observations += 1

    @staticmethod
    def _window_fraction(
        points: deque, window: int
    ) -> tuple[float, float]:
        """(bad_fraction, total) over the trailing ``window`` points."""
        if not points:
            return (0.0, 0.0)
        newest = points[-1]
        base_index = max(0, len(points) - 1 - window)
        oldest = points[base_index]
        good = newest[0] - oldest[0]
        total = newest[1] - oldest[1]
        if total <= 0:
            return (0.0, 0.0)
        return (max(0.0, total - good) / total, total)

    def report(self) -> SLOReport:
        entries: list[dict] = []
        healthy = True
        for objective in self.objectives:
            points = self._series[objective.name].points
            good, total = points[-1] if points else (0.0, 0.0)
            bad_overall = max(0.0, total - good)
            compliance = good / total if total > 0 else 1.0
            budget = objective.error_budget
            short_bad, _ = self._window_fraction(points, self.short_window)
            long_bad, _ = self._window_fraction(points, self.long_window)
            burn_short = short_bad / budget
            burn_long = long_bad / budget
            budget_spent = (
                (bad_overall / total) / budget if total > 0 else 0.0
            )
            violated = compliance < objective.target
            if violated or burn_long > 1.0:
                healthy = False
            entries.append(
                {
                    "name": objective.name,
                    "description": objective.description,
                    "kind": objective.kind,
                    "metric": objective.metric,
                    "target": objective.target,
                    "threshold": objective.threshold,
                    "good": good,
                    "total": total,
                    "compliance": compliance,
                    "violated": violated,
                    "burn_rate_short": burn_short,
                    "burn_rate_long": burn_long,
                    "budget_remaining": 1.0 - budget_spent,
                }
            )
        return SLOReport(
            objectives=tuple(entries),
            healthy=healthy,
            short_window=self.short_window,
            long_window=self.long_window,
        )

    def export(self, registry: "MetricsRegistry") -> None:
        """Mirror the current standing onto ``registry`` gauges."""
        report = self.report()
        burn = registry.gauge(
            "fdeta_slo_burn_rate",
            "Error-budget burn rate per objective and window.",
            labels=("objective", "window"),
        )
        remaining = registry.gauge(
            "fdeta_slo_budget_remaining",
            "Fraction of the error budget still unspent, per objective.",
            labels=("objective",),
        )
        for entry in report.objectives:
            burn.set(
                entry["burn_rate_short"],
                objective=entry["name"],
                window="short",
            )
            burn.set(
                entry["burn_rate_long"],
                objective=entry["name"],
                window="long",
            )
            remaining.set(
                entry["budget_remaining"], objective=entry["name"]
            )


def default_fleet_objectives(
    cycle_latency_s: float = 0.25,
    staleness_cycles: float = 2.0,
) -> tuple[SLObjective, ...]:
    """The stock fleet objectives (tune thresholds per deployment)."""
    return (
        SLObjective(
            name="cycle_latency_p99",
            description="99% of ingest cycles complete within the bound.",
            target=0.99,
            kind="latency",
            metric="fdeta_ingest_cycle_seconds",
            threshold=cycle_latency_s,
        ),
        SLObjective(
            name="ingest_availability",
            description="Readings ingested cleanly (gaps spend budget).",
            target=0.999,
            kind="availability",
            metric="fdeta_readings_total",
            bad_labels=(("status", "gap"),),
        ),
        SLObjective(
            name="verdict_staleness",
            description=(
                "Shards serve verdicts within the lag bound of the "
                "fleet frontier."
            ),
            target=0.99,
            kind="staleness",
            metric="fdeta_fleet_shard_lag_cycles",
            threshold=staleness_cycles,
        ),
    )
