"""AMI network: the smart meters attached to a topology.

Ties the metering layer to the grid topology: each consumer leaf carries a
:class:`~repro.metering.meter.SmartMeter`, and each polling period
:meth:`AMINetwork.snapshot` pairs every meter's report with the true
demands, which is what the balance check of eqs (4)-(6)
(:class:`repro.grid.balance.BalanceAuditor`) audits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from repro.errors import MeteringError
from repro.grid.snapshot import DemandSnapshot
from repro.grid.topology import RadialTopology
from repro.metering.errors_model import MeasurementErrorModel
from repro.metering.meter import SmartMeter


@dataclass
class AMINetwork:
    """The fleet of smart meters attached to a topology's consumers."""

    topology: RadialTopology
    meters: dict[str, SmartMeter] = field(default_factory=dict)

    @classmethod
    def deploy(
        cls,
        topology: RadialTopology,
        error_model: MeasurementErrorModel | None = None,
    ) -> "AMINetwork":
        """Install one smart meter per consumer leaf."""
        model = error_model if error_model is not None else MeasurementErrorModel()
        meters = {
            cid: SmartMeter(
                meter_id=f"meter-{cid}", consumer_id=cid, error_model=model
            )
            for cid in topology.consumers()
        }
        return cls(topology=topology, meters=meters)

    def meter(self, consumer_id: str) -> SmartMeter:
        try:
            return self.meters[consumer_id]
        except KeyError:
            raise MeteringError(f"no meter deployed for {consumer_id!r}") from None

    def collect(
        self, actual_demands: Mapping[str, float], rng: np.random.Generator
    ) -> dict[str, float]:
        """One polling cycle: every meter reports its (possibly tampered)
        reading for the given true demands."""
        missing = set(self.meters) - set(actual_demands)
        if missing:
            raise MeteringError(f"missing demands for consumers: {sorted(missing)}")
        return {
            cid: self.meters[cid].report(float(actual_demands[cid]), rng)
            for cid in self.meters
        }

    def snapshot(
        self,
        actual_demands: Mapping[str, float],
        rng: np.random.Generator,
        losses: Mapping[str, float] | None = None,
    ) -> DemandSnapshot:
        """Build a :class:`DemandSnapshot` for one polling period."""
        reported = self.collect(actual_demands, rng)
        return DemandSnapshot(
            topology=self.topology,
            actual={cid: float(v) for cid, v in actual_demands.items()},
            reported=reported,
            losses=dict(losses) if losses else {},
        )
