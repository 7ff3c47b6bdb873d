"""AMI communication-channel failure model.

Smart-meter reads travel over lossy links (PLC, mesh RF, cellular).
:class:`LossyChannel` injects the two dominant failure modes — random
per-reading drops and bursty outages that silence a meter for a stretch
of polling cycles — so the monitoring service's gap handling and gap
repair can be exercised under realistic failure injection.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from repro.errors import ConfigurationError


@dataclass
class LossyChannel:
    """A lossy reporting link between meters and the head-end.

    Parameters
    ----------
    drop_rate:
        Per-reading independent loss probability.
    outage_rate:
        Per-cycle probability that a meter *enters* a burst outage.
    outage_mean_cycles:
        Mean geometric duration of an outage once entered.
    """

    drop_rate: float = 0.01
    outage_rate: float = 0.001
    outage_mean_cycles: float = 8.0
    #: Remaining silent cycles per meter; ``math.inf`` means silenced
    #: for good.  Plain picklable state: the channel survives
    #: ``copy.deepcopy`` and ``pickle`` (the parallel evaluation path
    #: ships channels to ``ProcessPoolExecutor`` workers), and each copy
    #: evolves its outages independently afterwards.
    _outages: dict[str, float] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        for name in ("drop_rate", "outage_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigurationError(f"{name} must be in [0, 1], got {value}")
        if self.outage_mean_cycles < 1.0:
            raise ConfigurationError(
                f"outage_mean_cycles must be >= 1, got {self.outage_mean_cycles}"
            )

    def in_outage(self, meter_id: str) -> bool:
        return self._outages.get(meter_id, 0) > 0

    def silence(self, meter_id: str, cycles: int | None = None) -> None:
        """Force a meter into an outage (forever when ``cycles`` is None).

        Chaos tests use this to model a meter that dies outright rather
        than waiting for the stochastic outage process to kill it.
        """
        if cycles is None:
            self._outages[meter_id] = float("inf")
        else:
            if cycles < 1:
                raise ConfigurationError(f"cycles must be >= 1, got {cycles}")
            self._outages[meter_id] = float(cycles)

    def transmit(
        self, readings: Mapping[str, float], rng: np.random.Generator
    ) -> dict[str, float]:
        """One polling cycle over the channel.

        Returns the subset of readings that arrived; missing keys are
        lost readings (the head-end records them as gaps).
        """
        delivered: dict[str, float] = {}
        for meter_id, value in readings.items():
            remaining = self._outages.get(meter_id, 0)
            if remaining > 0:
                self._outages[meter_id] = remaining - 1
                continue
            if self.outage_rate > 0 and rng.random() < self.outage_rate:
                duration = 1 + int(rng.geometric(1.0 / self.outage_mean_cycles))
                self._outages[meter_id] = duration - 1
                continue
            if self.drop_rate > 0 and rng.random() < self.drop_rate:
                continue
            delivered[meter_id] = float(value)
        return delivered
