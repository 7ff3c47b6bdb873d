"""Merged verdict/metrics plane over a sharded fleet.

Each shard worker produces its own weekly reports, metrics registry
and reading store.  Operators and equivalence proofs need
the *fleet-wide* view — and because the F-DETA framework is purely
per-consumer, the canonical merged view of an elastic fleet must be
bit-identical to what one unsharded service over the same roster would
have produced.  The helpers here build that view deterministically:

* weekly reports merge per week, with alerts ordered by the fleet-wide
  sorted roster (the same order an unsharded service's boundary pass
  uses) and set-valued fields merged as sorted unions;
* metrics registries fold through the existing snapshot-merge rules
  (counters/histograms add, gauges last-write-wins);
* ``report_signature``/``merged_signature`` render byte-comparable
  tuples so chaos suites can diff a disturbed fleet against a baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from repro.observability.metrics import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.core.online import MonitoringReport, TheftAlert

__all__ = [
    "FleetWeekReport",
    "merge_metrics",
    "merge_observability",
    "merge_weekly_reports",
    "merged_signature",
    "report_signature",
]


@dataclass
class FleetWeekReport:
    """One fleet-wide week: the union of every shard's weekly report.

    Field semantics mirror
    :class:`~repro.core.online.MonitoringReport`; ``shards`` records
    which shards contributed (for operator display only — it is
    deliberately excluded from signatures, because *placement must not
    change verdicts*).
    """

    week_index: int
    alerts: list["TheftAlert"] = field(default_factory=list)
    balance_failures: tuple[str, ...] = ()
    coverage: dict[str, float] = field(default_factory=dict)
    suppressed: tuple[str, ...] = ()
    quarantined: tuple[str, ...] = ()
    shed: tuple[str, ...] = ()
    shards: tuple[str, ...] = ()


def _alert_key(alert: "TheftAlert") -> tuple:
    return (
        alert.consumer_id,
        alert.nature.value,
        float(alert.score),
        float(alert.threshold),
        bool(alert.balance_check_failed),
        float(alert.coverage),
    )


def merge_weekly_reports(
    streams: Mapping[str, Sequence["MonitoringReport"]],
    roster: Sequence[str] | None = None,
) -> list[FleetWeekReport]:
    """Merge per-shard report streams into fleet-wide weekly reports.

    ``streams`` maps shard name to that shard's ``service.reports``.
    ``roster`` fixes the alert ordering (fleet-wide sorted roster when
    omitted) so the merged order matches an unsharded boundary pass.
    A week missing from some shards (a shard added mid-run) merges
    from the shards that do have it.
    """
    by_week: dict[int, list[tuple[str, "MonitoringReport"]]] = {}
    for shard in sorted(streams):
        for report in streams[shard]:
            by_week.setdefault(report.week_index, []).append((shard, report))
    if roster is None:
        roster = sorted(
            {
                cid
                for reports in streams.values()
                for report in reports
                for cid in (
                    *report.coverage,
                    *report.suppressed,
                    *report.quarantined,
                    *report.shed,
                    *(a.consumer_id for a in report.alerts),
                )
            }
        )
    position = {cid: i for i, cid in enumerate(roster)}
    merged: list[FleetWeekReport] = []
    for week in sorted(by_week):
        out = FleetWeekReport(week_index=week)
        shards: list[str] = []
        balance: set[str] = set()
        suppressed: set[str] = set()
        quarantined: set[str] = set()
        shed: set[str] = set()
        for shard, report in by_week[week]:
            shards.append(shard)
            out.alerts.extend(report.alerts)
            balance.update(report.balance_failures)
            out.coverage.update(report.coverage)
            suppressed.update(report.suppressed)
            quarantined.update(report.quarantined)
            shed.update(report.shed)
        out.alerts.sort(
            key=lambda a: (
                position.get(a.consumer_id, len(position)),
                a.consumer_id,
            )
        )
        out.balance_failures = tuple(sorted(balance))
        out.suppressed = tuple(sorted(suppressed))
        out.quarantined = tuple(sorted(quarantined))
        out.shed = tuple(sorted(shed))
        out.shards = tuple(shards)
        merged.append(out)
    return merged


def report_signature(report: "MonitoringReport | FleetWeekReport") -> tuple:
    """A byte-comparable canonical view of one weekly report.

    Set-valued fields are sorted and alerts keyed by consumer id, so the
    signature is invariant to shard placement and shard iteration order
    — two runs produce equal signatures iff they produced the same
    verdicts and evidence.
    """
    return (
        report.week_index,
        tuple(sorted(_alert_key(alert) for alert in report.alerts)),
        tuple(sorted(report.balance_failures)),
        tuple(sorted(report.coverage.items())),
        tuple(sorted(report.suppressed)),
        tuple(sorted(report.quarantined)),
        tuple(sorted(report.shed)),
    )


def merged_signature(
    streams: Mapping[str, Sequence["MonitoringReport"]],
) -> tuple:
    """Signature of a whole fleet's merged weekly history."""
    return tuple(
        report_signature(report)
        for report in merge_weekly_reports(streams)
    )


def merge_metrics(registries: Iterable[MetricsRegistry]) -> MetricsRegistry:
    """Fold shard registries into one fleet-wide registry.

    Counters and histograms add; gauges take the last written value —
    the same rules as checkpoint snapshot merging.  Compare fleets via
    ``merged.totals()``, which is deterministic (no latency sums).
    """
    merged = MetricsRegistry()
    for registry in registries:
        merged.merge_snapshot(registry.snapshot())
    return merged


def merge_observability(
    shard_registries: Iterable[MetricsRegistry],
    fleet_registry: MetricsRegistry | None = None,
) -> MetricsRegistry:
    """One registry for the ops plane: shard telemetry + fleet gauges.

    SLO objectives read both per-shard series (cycle latency, reading
    outcomes) and fleet-level series (shard lag gauges, which live on
    the coordinator's registry, not any shard's).  This folds them into
    one queryable registry; the fleet registry merges last, so its
    gauges — levels, merged last-write-wins — land unclobbered.
    """
    merged = merge_metrics(shard_registries)
    if fleet_registry is not None:
        merged.merge_snapshot(fleet_registry.snapshot())
    return merged
