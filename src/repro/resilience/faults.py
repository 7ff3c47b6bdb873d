"""Fault-injection harness for chaos-style testing.

:class:`~repro.metering.channel.LossyChannel` models *loss* (drops and
burst outages).  Real AMI fleets additionally produce *wrong* readings:
stale duplicates from store-and-forward relays, stuck registers that
repeat one value, corrupted frames decoding to non-finite or negative
numbers, and clock-skewed meters reporting a slot late.  The injector
below layers those modes on top of a reading stream so integration tests
can assert the monitoring pipeline degrades gracefully instead of
crashing or silently mis-training.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from repro.errors import ConfigurationError
from repro.metering.channel import LossyChannel


@dataclass
class FaultInjector:
    """Per-meter reading corruption with persistent per-meter state.

    Parameters
    ----------
    duplicate_rate:
        Per-cycle probability a meter re-sends its *previous* reading
        instead of the current one (a stale duplicate from a relay).
    stuck_rate:
        Per-cycle probability a meter's register sticks; once stuck it
        repeats the same value for a geometric number of cycles with
        mean ``stuck_mean_cycles``.
    stuck_mean_cycles:
        Mean duration of a stuck run.
    corrupt_rate:
        Per-cycle probability a reading arrives corrupted — NaN, +inf,
        or an impossible negative value.
    clock_skew_rate:
        Per-cycle probability a meter's clock slips one polling period;
        a skewed meter permanently reports the previous cycle's value
        (its series is shifted by one slot from the skew onward).
    """

    duplicate_rate: float = 0.0
    stuck_rate: float = 0.0
    stuck_mean_cycles: float = 48.0
    corrupt_rate: float = 0.0
    clock_skew_rate: float = 0.0
    _last: dict[str, float] = field(default_factory=dict, repr=False)
    _stuck: dict[str, tuple[float, int]] = field(default_factory=dict, repr=False)
    _skewed: set[str] = field(default_factory=set, repr=False)

    def __post_init__(self) -> None:
        for name in (
            "duplicate_rate",
            "stuck_rate",
            "corrupt_rate",
            "clock_skew_rate",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigurationError(f"{name} must be in [0, 1], got {value}")
        if self.stuck_mean_cycles < 1.0:
            raise ConfigurationError(
                f"stuck_mean_cycles must be >= 1, got {self.stuck_mean_cycles}"
            )

    def apply(
        self, readings: Mapping[str, float], rng: np.random.Generator
    ) -> dict[str, float]:
        """Corrupt one cycle of readings; every key is preserved."""
        out: dict[str, float] = {}
        for meter_id, value in readings.items():
            true_value = float(value)
            out[meter_id] = self._faulted(meter_id, true_value, rng)
            self._last[meter_id] = true_value
        return out

    def _faulted(
        self, meter_id: str, value: float, rng: np.random.Generator
    ) -> float:
        stuck = self._stuck.get(meter_id)
        if stuck is not None:
            stuck_value, remaining = stuck
            if remaining > 1:
                self._stuck[meter_id] = (stuck_value, remaining - 1)
            else:
                del self._stuck[meter_id]
            return stuck_value
        if self.stuck_rate > 0 and rng.random() < self.stuck_rate:
            duration = int(rng.geometric(1.0 / self.stuck_mean_cycles))
            if duration > 1:
                self._stuck[meter_id] = (value, duration - 1)
            return value
        if meter_id not in self._skewed:
            if self.clock_skew_rate > 0 and rng.random() < self.clock_skew_rate:
                self._skewed.add(meter_id)
        if meter_id in self._skewed:
            value = self._last.get(meter_id, value)
        elif self.duplicate_rate > 0 and rng.random() < self.duplicate_rate:
            value = self._last.get(meter_id, value)
        if self.corrupt_rate > 0 and rng.random() < self.corrupt_rate:
            return float(rng.choice([np.nan, np.inf, -1.0]))
        return value


@dataclass
class FaultyChannel:
    """A :class:`LossyChannel` whose surviving readings are also faulted.

    Drop-in replacement for ``LossyChannel`` on the monitor's reading
    path (``repro monitor`` wires one into the service): readings
    pass through the :class:`FaultInjector` first (corruption happens at
    the meter/relay), then through the loss model (the link drops frames
    regardless of their content).
    """

    channel: LossyChannel = field(default_factory=LossyChannel)
    faults: FaultInjector = field(default_factory=FaultInjector)

    def transmit(
        self, readings: Mapping[str, float], rng: np.random.Generator
    ) -> dict[str, float]:
        return self.channel.transmit(self.faults.apply(readings, rng), rng)

    def in_outage(self, meter_id: str) -> bool:
        return self.channel.in_outage(meter_id)
