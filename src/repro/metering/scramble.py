"""Out-of-order delivery fault injector for event-time chaos tests.

:class:`~repro.metering.channel.LossyChannel` models *loss* and
:class:`~repro.resilience.faults.FaultInjector` models *wrong values*.
Real AMI backhauls additionally deliver correct readings *late and out
of order*: mesh routes re-converge, cellular modems batch frames, and a
collector that was down delivers its whole backlog at once.  The
:class:`ScramblingChannel` below models that third failure mode — each
reading keeps its true event-time slot but arrives some slots later —
so the event-time pipeline (:mod:`repro.eventtime`) can be exercised
against realistic delivery disorder.

Delays are drawn from a per-consumer lognormal: every consumer gets a
persistent route-quality multiplier on first sight (some meters sit on a
slow backhaul for their whole life), and each reading then draws an
independent lognormal delay scaled by it.  Outages add burst batching: a
consumer in outage accumulates readings and delivers them as one batch
when the outage lifts.  All delays are capped at ``max_delay_slots``;
keeping that cap at or below ``lateness_slots + grace_weeks * 336``
guarantees every reading is reconciled before its week finalises, which
is the precondition for the scrambled-equals-in-order equivalence the
chaos tests assert.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from repro.errors import ConfigurationError
from repro.eventtime.reorder import StampedReading


@dataclass
class ScramblingChannel:
    """Delays and reorders readings without losing or corrupting them.

    Parameters
    ----------
    median_delay_slots:
        Median of the lognormal delivery delay, in polling slots.
    sigma:
        Shape of the per-reading lognormal delay.
    consumer_sigma:
        Spread of the persistent per-consumer route-quality multiplier
        (itself lognormal with median 1); ``0`` gives every consumer the
        same delay distribution.
    max_delay_slots:
        Hard cap on any delivery delay.  Keep this at or below the
        event-time pipeline's ``lateness_slots + grace_slots`` to
        guarantee no reading is quarantined ``too_late``.
    duplicate_rate:
        Per-reading probability the backhaul delivers a second copy
        (with an independently drawn delay).
    outage_rate:
        Per-slot probability a consumer's collector *enters* an outage.
    outage_mean_slots:
        Mean geometric outage duration; actual durations are capped at
        ``max_delay_slots`` so held readings still beat the grace
        window.
    """

    median_delay_slots: float = 2.0
    sigma: float = 0.8
    consumer_sigma: float = 0.5
    max_delay_slots: int = 48
    duplicate_rate: float = 0.0
    outage_rate: float = 0.0
    outage_mean_slots: float = 16.0
    #: Scheduled deliveries: processing slot -> readings due then.
    _due: dict[int, list[StampedReading]] = field(default_factory=dict, repr=False)
    #: Readings accumulated while their consumer's collector is down.
    _held: dict[str, list[StampedReading]] = field(default_factory=dict, repr=False)
    #: First slot at which an out-of-service consumer is back online.
    _outage_until: dict[str, int] = field(default_factory=dict, repr=False)
    #: Persistent per-consumer route-quality multipliers.
    _route_scale: dict[str, float] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if self.median_delay_slots < 0.0:
            raise ConfigurationError(
                f"median_delay_slots must be >= 0, got {self.median_delay_slots}"
            )
        for name in ("sigma", "consumer_sigma"):
            if getattr(self, name) < 0.0:
                raise ConfigurationError(
                    f"{name} must be >= 0, got {getattr(self, name)}"
                )
        if self.max_delay_slots < 0:
            raise ConfigurationError(
                f"max_delay_slots must be >= 0, got {self.max_delay_slots}"
            )
        for name in ("duplicate_rate", "outage_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigurationError(f"{name} must be in [0, 1], got {value}")
        if self.outage_mean_slots < 1.0:
            raise ConfigurationError(
                f"outage_mean_slots must be >= 1, got {self.outage_mean_slots}"
            )

    @property
    def pending(self) -> int:
        """Readings pushed but not yet popped (scheduled plus held)."""
        scheduled = sum(len(batch) for batch in self._due.values())
        held = sum(len(batch) for batch in self._held.values())
        return scheduled + held

    def in_outage(self, consumer_id: str, slot: int) -> bool:
        return self._outage_until.get(consumer_id, 0) > slot

    def silence(self, consumer_id: str, until_slot: int) -> None:
        """Force a collector outage lasting until ``until_slot``.

        Chaos tests use this to batch a consumer's readings
        deterministically instead of waiting for the stochastic outage
        process.  The caller is responsible for keeping the outage
        shorter than the grace window if equivalence matters.
        """
        if until_slot < 0:
            raise ConfigurationError(
                f"until_slot must be >= 0, got {until_slot}"
            )
        self._outage_until[consumer_id] = int(until_slot)

    def _delay(self, consumer_id: str, rng: np.random.Generator) -> int:
        scale = self._route_scale.get(consumer_id)
        if scale is None:
            if self.consumer_sigma > 0.0:
                scale = float(rng.lognormal(mean=0.0, sigma=self.consumer_sigma))
            else:
                scale = 1.0
            self._route_scale[consumer_id] = scale
        if self.median_delay_slots <= 0.0:
            return 0
        draw = float(rng.lognormal(mean=0.0, sigma=self.sigma))
        delay = int(scale * self.median_delay_slots * draw)
        return min(delay, self.max_delay_slots)

    def _schedule(self, reading: StampedReading, due_slot: int) -> None:
        self._due.setdefault(due_slot, []).append(reading)

    def push(
        self,
        slot: int,
        readings: Mapping[str, float],
        rng: np.random.Generator,
    ) -> None:
        """Accept one polling slot's readings into the backhaul.

        Each reading keeps ``slot`` as its event time; its processing
        slot is ``slot`` plus a drawn delay (or the outage's end for a
        consumer whose collector is down).
        """
        slot = int(slot)
        for consumer_id, value in readings.items():
            reading = StampedReading(consumer_id, slot, float(value))
            if self.in_outage(consumer_id, slot):
                self._held.setdefault(consumer_id, []).append(reading)
                continue
            if self.outage_rate > 0 and rng.random() < self.outage_rate:
                drawn = 1 + int(rng.geometric(1.0 / self.outage_mean_slots))
                duration = max(1, min(drawn, self.max_delay_slots))
                self._outage_until[consumer_id] = slot + duration
                self._held.setdefault(consumer_id, []).append(reading)
                continue
            self._schedule(reading, slot + self._delay(consumer_id, rng))
            if self.duplicate_rate > 0 and rng.random() < self.duplicate_rate:
                self._schedule(reading, slot + self._delay(consumer_id, rng))

    def pop_due(self, slot: int) -> list[StampedReading]:
        """Everything the backhaul delivers by processing slot ``slot``.

        Includes scheduled readings whose delay has elapsed and, for any
        consumer whose outage ended at or before ``slot``, the whole
        held backlog as one burst.
        """
        slot = int(slot)
        delivered: list[StampedReading] = []
        for due_slot in sorted(s for s in self._due if s <= slot):
            delivered.extend(self._due.pop(due_slot))
        for consumer_id in list(self._held):
            if self._outage_until.get(consumer_id, 0) <= slot:
                delivered.extend(self._held.pop(consumer_id))
        return delivered

    def drain(self) -> list[StampedReading]:
        """Deliver everything still in flight (end-of-run flush)."""
        delivered: list[StampedReading] = []
        for due_slot in sorted(self._due):
            delivered.extend(self._due.pop(due_slot))
        for consumer_id in list(self._held):
            delivered.extend(self._held.pop(consumer_id))
        self._outage_until.clear()
        return delivered


def scramble_series(
    series: Mapping[str, np.ndarray],
    channel: ScramblingChannel,
    rng: np.random.Generator,
) -> list[list[StampedReading]]:
    """Push whole per-consumer series through the channel slot by slot.

    Returns one delivery batch per processing slot (the last batch
    carries the drain), ready to feed to
    :meth:`repro.eventtime.EventTimeIngestor.deliver`.  Series must all
    have the same length.
    """
    lengths = {np.asarray(s).size for s in series.values()}
    if len(lengths) > 1:
        raise ConfigurationError(
            f"all series must have equal length, got lengths {sorted(lengths)}"
        )
    n_slots = lengths.pop() if lengths else 0
    arrays = {cid: np.asarray(s, dtype=float).ravel() for cid, s in series.items()}
    batches: list[list[StampedReading]] = []
    for t in range(n_slots):
        readings = {
            cid: float(arr[t])
            for cid, arr in arrays.items()
            if math.isfinite(arr[t])
        }
        channel.push(t, readings, rng)
        batches.append(channel.pop_due(t))
    batches.append(channel.drain())
    return batches
