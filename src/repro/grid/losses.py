"""Network loss modelling.

Eq (4) models line-impedance and transformer losses as leaf nodes; the
utility "calculates [losses] based on known values of distribution system
component specifications, such as line impedances" (Section V-A, citing
[24]).  :class:`ImpedanceLossModel` performs that calculation: each
internal node's feeder segment has a resistance and a nominal voltage,
and its loss leaf is assigned ``I^2 R`` for the current implied by the
power flowing into its subtree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.errors import TopologyError
from repro.grid.topology import NodeKind, RadialTopology


@dataclass(frozen=True)
class FeederSegment:
    """Electrical parameters of the segment feeding one internal node.

    Attributes
    ----------
    resistance_ohm:
        Series resistance of the segment.
    voltage_kv:
        Line-to-line voltage at the segment (kV).
    """

    resistance_ohm: float
    voltage_kv: float

    def __post_init__(self) -> None:
        if self.resistance_ohm < 0:
            raise TopologyError(
                f"resistance must be >= 0, got {self.resistance_ohm}"
            )
        if self.voltage_kv <= 0:
            raise TopologyError(f"voltage must be positive, got {self.voltage_kv}")

    def loss_kw(self, power_kw: float) -> float:
        """I^2 R loss for ``power_kw`` flowing through the segment.

        Single-phase approximation: ``I = P / V`` with P in kW and V in
        kV gives I in A; the loss is ``I^2 R`` in W, converted to kW.
        """
        if power_kw < 0:
            raise TopologyError(f"power must be >= 0, got {power_kw}")
        current_a = power_kw / self.voltage_kv
        return current_a * current_a * self.resistance_ohm / 1000.0


@dataclass
class ImpedanceLossModel:
    """Assigns loss-leaf demands from feeder segment specifications.

    Parameters
    ----------
    topology:
        The grid; every internal node owning a loss leaf should have a
        segment specification (missing nodes contribute zero loss).
    segments:
        ``internal_node_id -> FeederSegment``.
    """

    topology: RadialTopology
    segments: Mapping[str, FeederSegment] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for nid in self.segments:
            node = self.topology.node(nid)
            if node.kind is not NodeKind.INTERNAL:
                raise TopologyError(
                    f"segments are keyed by internal nodes, got {nid!r}"
                )

    @classmethod
    def uniform(
        cls,
        topology: RadialTopology,
        resistance_ohm: float = 0.5,
        voltage_kv: float = 11.0,
    ) -> "ImpedanceLossModel":
        """Same segment parameters on every internal node."""
        segment = FeederSegment(
            resistance_ohm=resistance_ohm, voltage_kv=voltage_kv
        )
        return cls(
            topology=topology,
            segments={nid: segment for nid in topology.internal_nodes()},
        )

    def _loss_leaf_of(self, internal_id: str) -> str | None:
        for child in self.topology.children(internal_id):
            if self.topology.node(child).kind is NodeKind.LOSS:
                return child
        return None

    def compute_losses(
        self, consumer_demands: Mapping[str, float]
    ) -> dict[str, float]:
        """Loss-leaf demands for one polling period.

        The flow through each internal node is the sum of its subtree's
        consumer demands (losses are second-order and not iterated —
        the usual engineering approximation).
        """
        consumer_set = set(self.topology.consumers())
        if set(consumer_demands) != consumer_set:
            raise TopologyError(
                "consumer demands must cover exactly the topology's consumers"
            )
        losses: dict[str, float] = {
            lid: 0.0 for lid in self.topology.losses()
        }
        for nid, segment in self.segments.items():
            leaf = self._loss_leaf_of(nid)
            if leaf is None:
                continue
            subtree_kw = sum(
                consumer_demands[cid]
                for cid in self.topology.consumer_descendants(nid)
            )
            losses[leaf] = segment.loss_kw(subtree_kw)
        return losses
