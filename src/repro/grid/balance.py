"""The balance check (eqs 4-6) and W-event alarm logic (Section V-B)."""

from __future__ import annotations

from dataclasses import dataclass, field
from repro.errors import TopologyError
from repro.grid.snapshot import DemandSnapshot
from repro.grid.topology import NodeKind, RadialTopology


@dataclass(frozen=True)
class NodeCheck:
    """Outcome of the balance check at one instrumented node.

    ``w_event`` is the paper's event W: the balance meter at this node
    reports a failure, i.e. the meter's measured aggregate differs from the
    sum of reported child-consumer readings plus calculated losses (eq 5).
    """

    node_id: str
    measured: float
    reported_sum: float
    w_event: bool
    compromised_meter: bool


@dataclass(frozen=True)
class BalanceCheckReport:
    """Balance check results across all instrumented internal nodes."""

    checks: dict[str, NodeCheck] = field(repr=False)

    def w(self, node_id: str) -> bool:
        """Whether event W is true at ``node_id`` (False if uninstrumented)."""
        check = self.checks.get(node_id)
        return bool(check and check.w_event)

    def failing_nodes(self) -> tuple[str, ...]:
        return tuple(nid for nid, c in self.checks.items() if c.w_event)

    @property
    def any_failure(self) -> bool:
        return any(c.w_event for c in self.checks.values())


class BalanceAuditor:
    """Runs balance checks over a topology, including compromised meters.

    Parameters
    ----------
    topology:
        The distribution grid.
    instrumented:
        Ids of internal nodes that carry balance meters.  The paper's
        conservative evaluation setting instruments only the root.
    tolerance:
        Absolute slack allowed before a mismatch counts as a failure;
        models the +/-0.5% measurement accuracy of electronic meters.
    """

    def __init__(
        self,
        topology: RadialTopology,
        instrumented: tuple[str, ...] | None = None,
        tolerance: float = 1e-6,
    ) -> None:
        if tolerance < 0:
            raise TopologyError(f"tolerance must be >= 0, got {tolerance}")
        self.topology = topology
        if instrumented is None:
            instrumented = topology.internal_nodes()
        for nid in instrumented:
            node = topology.node(nid)
            if node.kind is not NodeKind.INTERNAL:
                raise TopologyError(
                    f"only internal nodes carry balance meters, got {nid!r}"
                )
        self.instrumented = tuple(instrumented)
        self.tolerance = float(tolerance)
        self._compromised: set[str] = set()

    # ------------------------------------------------------------------
    # Meter compromise (Section VI-A: Mallory compromises the chain of
    # balance meters on her path to the root)
    # ------------------------------------------------------------------

    def compromise_meter(self, node_id: str) -> None:
        """Mark the balance meter at ``node_id`` as attacker-controlled.

        A compromised balance meter always reports a passing check: the
        attacker forges ``D'_N`` to equal the reported sum.
        """
        if node_id not in self.instrumented:
            raise TopologyError(f"node {node_id!r} has no balance meter")
        self._compromised.add(node_id)

    def compromise_path(self, consumer_id: str, spare_root: bool = True) -> int:
        """Compromise every instrumented meter on a consumer's root path.

        Returns the number of meters compromised.  ``spare_root=True``
        leaves the root meter alone, matching the paper's trusted-root
        assumption (Section VII-A).
        """
        node = self.topology.node(consumer_id)
        if node.kind is not NodeKind.CONSUMER:
            raise TopologyError(f"{consumer_id!r} is not a consumer")
        count = 0
        for nid in self.topology.path_to_root(consumer_id):
            if nid == self.topology.root_id and spare_root:
                continue
            if nid in self.instrumented and nid not in self._compromised:
                self._compromised.add(nid)
                count += 1
        return count

    # ------------------------------------------------------------------
    # Checks
    # ------------------------------------------------------------------

    def check_node(self, snapshot: DemandSnapshot, node_id: str) -> NodeCheck:
        """Run eq (5) at a single instrumented node."""
        if node_id not in self.instrumented:
            raise TopologyError(f"node {node_id!r} has no balance meter")
        measured = snapshot.true_demand_at(node_id)
        reported_sum = snapshot.reported_sum_at(node_id)
        compromised = node_id in self._compromised
        if compromised:
            # The attacker forges the balance meter reading to match.
            measured = reported_sum
        w_event = abs(measured - reported_sum) > self.tolerance
        return NodeCheck(
            node_id=node_id,
            measured=measured,
            reported_sum=reported_sum,
            w_event=w_event,
            compromised_meter=compromised,
        )

    def audit(self, snapshot: DemandSnapshot) -> BalanceCheckReport:
        """Run the balance check at every instrumented node."""
        checks = {nid: self.check_node(snapshot, nid) for nid in self.instrumented}
        return BalanceCheckReport(checks=checks)

    # ------------------------------------------------------------------
    # Alarm rules of Section V-B
    # ------------------------------------------------------------------

    def inconsistency_alarms(self, report: BalanceCheckReport) -> tuple[str, ...]:
        """Nodes where the W-propagation invariants are violated.

        Two rules from Section V-B:

        1. W true at a node but false at its instrumented parent implies a
           faulty or compromised meter — alarm at that node.
        2. W true at a parent while false at *all* its instrumented
           internal children implies the parent or a child is faulty or
           compromised — alarm at the parent.  (Only meaningful when all
           the parent's internal children are instrumented.)
        """
        alarms: list[str] = []
        instrumented = set(self.instrumented)
        for nid in self.instrumented:
            if not report.w(nid):
                continue
            parent = self.topology.parent(nid)
            # Walk up to the nearest instrumented ancestor.
            while parent is not None and parent not in instrumented:
                parent = self.topology.parent(parent)
            if parent is not None and not report.w(parent):
                alarms.append(nid)
        for nid in self.instrumented:
            if not report.w(nid):
                continue
            internal_children = [
                c
                for c in self.topology.children(nid)
                if self.topology.node(c).kind is NodeKind.INTERNAL
            ]
            if not internal_children:
                continue
            if all(c in instrumented for c in internal_children) and not any(
                report.w(c) for c in internal_children
            ):
                alarms.append(nid)
        return tuple(dict.fromkeys(alarms))
