"""Demand snapshots: actual and reported leaf demands at one time period."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.errors import TopologyError
from repro.grid.topology import NodeKind, RadialTopology


@dataclass
class DemandSnapshot:
    """Actual and reported demands for one polling period ``t``.

    Attributes
    ----------
    topology:
        The grid the demands live on.
    actual:
        ``consumer_id -> D_c(t)``: true average demand.
    reported:
        ``consumer_id -> D'_c(t)``: demand reported by the smart meter.
        Defaults to a copy of ``actual`` (uncompromised meters).
    losses:
        ``loss_id -> D_l(t)``: calculated network losses (eq 4); the
        utility derives these from component specifications, so there is
        no "reported" variant.
    """

    topology: RadialTopology
    actual: dict[str, float]
    reported: dict[str, float] = field(default_factory=dict)
    losses: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        consumer_set = set(self.topology.consumers())
        loss_set = set(self.topology.losses())
        unknown = set(self.actual) - consumer_set
        if unknown:
            raise TopologyError(f"actual demands for non-consumers: {sorted(unknown)}")
        missing = consumer_set - set(self.actual)
        if missing:
            raise TopologyError(f"missing actual demands: {sorted(missing)}")
        for cid, value in self.actual.items():
            if value < 0:
                raise TopologyError(f"negative demand for {cid!r}: {value}")
        if not self.reported:
            self.reported = dict(self.actual)
        if set(self.reported) != consumer_set:
            raise TopologyError("reported demands must cover exactly the consumers")
        unknown_losses = set(self.losses) - loss_set
        if unknown_losses:
            raise TopologyError(f"losses for non-loss nodes: {sorted(unknown_losses)}")
        for lid in loss_set - set(self.losses):
            self.losses[lid] = 0.0

    # ------------------------------------------------------------------
    # Aggregation (eq 4)
    # ------------------------------------------------------------------

    def true_demand_at(self, node_id: str) -> float:
        """``D_N(t)``: physically flowing power at an internal node.

        Active power is additive, so this is the sum of actual consumer
        demands and losses in the subtree (eq 4).
        """
        node = self.topology.node(node_id)
        if node.kind is NodeKind.CONSUMER:
            return self.actual[node_id]
        if node.kind is NodeKind.LOSS:
            return self.losses[node_id]
        total = sum(
            self.actual[c] for c in self.topology.consumer_descendants(node_id)
        )
        total += sum(self.losses[l] for l in self.topology.loss_descendants(node_id))
        return total

    def reported_sum_at(self, node_id: str) -> float:
        """RHS of eq (5): reported consumer demands plus calculated losses."""
        node = self.topology.node(node_id)
        if node.kind is NodeKind.CONSUMER:
            return self.reported[node_id]
        if node.kind is NodeKind.LOSS:
            return self.losses[node_id]
        total = sum(
            self.reported[c] for c in self.topology.consumer_descendants(node_id)
        )
        total += sum(self.losses[l] for l in self.topology.loss_descendants(node_id))
        return total

    def with_reported(self, overrides: Mapping[str, float]) -> "DemandSnapshot":
        """Copy of this snapshot with some reported readings replaced."""
        new_reported = dict(self.reported)
        for cid, value in overrides.items():
            if cid not in new_reported:
                raise TopologyError(f"unknown consumer: {cid!r}")
            new_reported[cid] = float(value)
        return DemandSnapshot(
            topology=self.topology,
            actual=dict(self.actual),
            reported=new_reported,
            losses=dict(self.losses),
        )
