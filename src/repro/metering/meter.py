"""Smart meters: measurement, tampering, and upstream line taps."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.errors import MeteringError
from repro.metering.errors_model import MeasurementErrorModel

#: A tamper function maps the measured demand to the value the meter
#: reports to the utility.
TamperFunction = Callable[[float], float]


@dataclass
class TamperSeal:
    """Physical tamper-detection seal on a meter.

    Penetration testing has shown these can be bypassed (the paper cites
    [22]); ``bypassable=True`` models that reality.  An unbypassed
    compromise trips the seal, which the utility would notice.
    """

    bypassable: bool = True
    tripped: bool = False

    def attempt_bypass(self) -> bool:
        """Try to open the meter without tripping the seal."""
        if self.bypassable:
            return True
        self.tripped = True
        return False


@dataclass
class SmartMeter:
    """A consumer smart meter.

    The meter *measures* what flows through it (subject to measurement
    error) and *reports* a possibly-tampered value.  Two distinct
    compromise paths exist, matching Section IV:

    * firmware/link tampering (:meth:`compromise`): reported value is an
      arbitrary function of the measured value;
    * an upstream line tap (:meth:`install_upstream_tap`): the meter is
      honest, but ``tap_kw`` of demand bypasses it entirely (Fig. 1).
    """

    meter_id: str
    consumer_id: str
    error_model: MeasurementErrorModel = field(default_factory=MeasurementErrorModel)
    seal: TamperSeal = field(default_factory=TamperSeal)
    _tamper: TamperFunction | None = field(default=None, repr=False)
    tap_kw: float = 0.0

    def compromise(self, tamper: TamperFunction) -> None:
        """Install a tamper function (requires bypassing the seal)."""
        if not self.seal.attempt_bypass():
            raise MeteringError(
                f"tamper seal on meter {self.meter_id!r} tripped during compromise"
            )
        self._tamper = tamper

    def restore(self) -> None:
        """Remove any tampering (e.g. after a utility inspection)."""
        self._tamper = None
        self.tap_kw = 0.0

    def install_upstream_tap(self, tap_kw: float) -> None:
        """Divert ``tap_kw`` of demand upstream of the meter (Fig. 1)."""
        if tap_kw < 0:
            raise MeteringError(f"tap must be >= 0 kW, got {tap_kw}")
        self.tap_kw = float(tap_kw)

    def measure(self, actual_demand: float, rng: np.random.Generator) -> float:
        """What the meter physically measures for a true demand.

        An upstream tap removes its share before the meter sees the flow;
        the rest is measured with the configured error model.
        """
        if actual_demand < 0:
            raise MeteringError(f"demand must be >= 0, got {actual_demand}")
        seen = max(0.0, actual_demand - self.tap_kw)
        return self.error_model.apply(seen, rng)

    def report(self, actual_demand: float, rng: np.random.Generator) -> float:
        """The reading D'_C(t) sent to the utility for a true demand."""
        measured = self.measure(actual_demand, rng)
        if self._tamper is None:
            return measured
        reported = float(self._tamper(measured))
        if reported < 0:
            raise MeteringError(
                f"tamper function on {self.meter_id!r} produced a negative reading"
            )
        return reported
