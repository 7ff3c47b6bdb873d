"""Investigation of balance-check failures (Section V-C).

Two procedures are modelled:

* **Case 1** — every internal node is instrumented: find the deepest node
  reporting a W event; its consumer leaves form the neighbourhood to
  inspect manually.
* **Case 2** — sparse instrumentation: a serviceman with a portable meter
  performs a BFS-style descent, measuring each child of the current node
  and recursing only into subtrees whose measurements disagree with the
  reported sums.  The number of portable-meter checks is the utility's
  investigation cost; for balanced trees it is O(log N) instead of the
  O(N) exhaustive inspection.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import TopologyError
from repro.grid.balance import BalanceCheckReport
from repro.grid.snapshot import DemandSnapshot
from repro.grid.topology import NodeKind, RadialTopology


@dataclass(frozen=True)
class InvestigationResult:
    """Outcome of an investigation.

    Attributes
    ----------
    suspect_consumers:
        Consumers whose meters must be manually inspected; guaranteed to
        include the node(s) responsible when balance meters are honest.
    checks_performed:
        Number of portable-meter (or balance-meter) readings consulted.
    localized_node:
        The deepest internal node whose subtree contains the discrepancy.
    """

    suspect_consumers: tuple[str, ...]
    checks_performed: int
    localized_node: str


def deepest_failure_investigation(
    topology: RadialTopology, report: BalanceCheckReport
) -> InvestigationResult:
    """Case 1: fully instrumented tree; use recorded W events only.

    Finds the deepest failing node (ties broken toward the one with the
    fewest consumer descendants, then lexicographically for determinism).
    """
    failing = report.failing_nodes()
    if not failing:
        raise TopologyError("no balance-check failures to investigate")
    ranked = sorted(
        failing,
        key=lambda nid: (
            -topology.depth(nid),
            len(topology.consumer_descendants(nid)),
            nid,
        ),
    )
    deepest = ranked[0]
    suspects = topology.consumer_descendants(deepest)
    return InvestigationResult(
        suspect_consumers=suspects,
        checks_performed=len(report.checks),
        localized_node=deepest,
    )


def serviceman_search(
    topology: RadialTopology,
    snapshot: DemandSnapshot,
    tolerance: float = 1e-6,
    start: str | None = None,
) -> InvestigationResult:
    """Case 2: descend from the root with a portable (trusted) meter.

    At each internal node, the serviceman measures each child branch and
    compares against the reported sums for that branch; only mismatching
    branches are descended into.  The portable meter measures true power,
    so a mismatching branch always contains a discrepancy.
    """
    if tolerance < 0:
        raise TopologyError(f"tolerance must be >= 0, got {tolerance}")
    current = topology.root_id if start is None else start
    if topology.node(current).kind is not NodeKind.INTERNAL:
        raise TopologyError(f"search must start at an internal node: {current!r}")
    checks = 0
    localized = current
    while True:
        suspicious_children: list[str] = []
        for child in topology.children(current):
            kind = topology.node(child).kind
            if kind is NodeKind.LOSS:
                continue
            checks += 1
            measured = snapshot.true_demand_at(child)
            reported = snapshot.reported_sum_at(child)
            if abs(measured - reported) > tolerance:
                suspicious_children.append(child)
        internal_suspects = [
            c
            for c in suspicious_children
            if topology.node(c).kind is NodeKind.INTERNAL
        ]
        consumer_suspects = [
            c
            for c in suspicious_children
            if topology.node(c).kind is NodeKind.CONSUMER
        ]
        if consumer_suspects or len(internal_suspects) != 1:
            # Either we pinned consumers directly, found nothing, or the
            # discrepancy spans several branches: stop and report the
            # current neighbourhood.
            localized = current
            if consumer_suspects and not internal_suspects:
                return InvestigationResult(
                    suspect_consumers=tuple(consumer_suspects),
                    checks_performed=checks,
                    localized_node=localized,
                )
            suspects: list[str] = list(consumer_suspects)
            for nid in internal_suspects:
                suspects.extend(topology.consumer_descendants(nid))
            if not suspects:
                suspects = list(topology.consumer_descendants(current))
            return InvestigationResult(
                suspect_consumers=tuple(dict.fromkeys(suspects)),
                checks_performed=checks,
                localized_node=localized,
            )
        current = internal_suspects[0]


def exhaustive_inspection_cost(topology: RadialTopology) -> int:
    """Cost of the naive O(N) strategy: inspect every consumer meter."""
    return len(topology.consumers())
