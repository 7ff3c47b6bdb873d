"""Configuration for overload-resilient ingestion.

One frozen dataclass gathers every load-control knob so the CLI, the
monitoring service, and the shard fleet all read the same contract: how
deep the ingestion queue may grow, when backpressure engages and
releases, which shedding policy applies under sustained pressure, and
how much wall-clock each polling cycle may spend.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, fields

from repro.errors import ConfigurationError

__all__ = ["LoadControlConfig", "ShedPolicy"]


class ShedPolicy(enum.Enum):
    """What the service does when it cannot score everyone in time.

    ``OFF``
        Never shed: every consumer is scored no matter how long it
        takes.  Deadline overruns are still recorded.
    ``PRIORITY``
        Score suspicious consumers first (alert history, breaker trips,
        quarantine evidence); shed from the healthy tier when the cycle
        deadline expires or backpressure has been sustained.
    ``UNIFORM``
        Shed without looking at priority: consumers are scored in roster
        order and the tail is shed when the budget runs out.
    """

    OFF = "off"
    PRIORITY = "priority"
    UNIFORM = "uniform"


@dataclass(frozen=True)
class LoadControlConfig:
    """Knobs governing behaviour under overload.

    Parameters
    ----------
    max_queue:
        Capacity of the bounded ingestion queue in front of the
        service; a full queue rejects further cycles (the producer must
        hold and retry — readings are never silently dropped).
    high_watermark / low_watermark:
        Queue-depth fractions at which the backpressure signal engages
        and releases (hysteresis: engage above high, release below low).
    shed_policy:
        What to do when scoring cannot complete (see
        :class:`ShedPolicy`).
    cycle_deadline_s:
        Wall-clock budget for one ``ingest_cycle`` call, threaded
        through firewall screening, WAL append, and weekly scoring.
        ``None`` disables deadline enforcement.
    pressure_shed_after:
        Consecutive backpressure-engaged drain ticks after which a
        week-boundary scoring pass pre-sheds the healthy tier (only
        under ``PRIORITY``/``UNIFORM`` policies).
    """

    max_queue: int = 1024
    high_watermark: float = 0.8
    low_watermark: float = 0.3
    shed_policy: ShedPolicy = ShedPolicy.OFF
    cycle_deadline_s: float | None = None
    pressure_shed_after: int = 4

    def __post_init__(self) -> None:
        if self.max_queue < 1:
            raise ConfigurationError(
                f"max_queue must be >= 1, got {self.max_queue}"
            )
        if not 0.0 < self.low_watermark < self.high_watermark <= 1.0:
            raise ConfigurationError(
                "watermarks must satisfy 0 < low < high <= 1, got "
                f"low={self.low_watermark}, high={self.high_watermark}"
            )
        if self.cycle_deadline_s is not None and self.cycle_deadline_s <= 0:
            raise ConfigurationError(
                f"cycle_deadline_s must be > 0, got {self.cycle_deadline_s}"
            )
        if self.pressure_shed_after < 1:
            raise ConfigurationError(
                f"pressure_shed_after must be >= 1, got "
                f"{self.pressure_shed_after}"
            )

    def __setstate__(self, state: dict) -> None:
        # Checkpoints pickle this config by its instance dict.  One
        # written while the config still carried the retired head-end
        # admission knobs must not carry them into later checkpoints.
        declared = {f.name for f in fields(self)}
        self.__dict__.update(
            {name: value for name, value in state.items() if name in declared}
        )
