"""Configuration for overload-resilient ingestion.

One frozen dataclass gathers every load-control knob so the CLI, the
monitoring service, the head-end, and the shard fleet all read the same
contract: how deep the ingestion queue may grow, when backpressure
engages and releases, how the admission controller paces the head-end,
which shedding policy applies under sustained pressure, and how much
wall-clock each polling cycle may spend.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

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
        Capacity of the bounded ingestion queue between head-end and
        service; a full queue rejects further cycles (the producer must
        hold and retry — readings are never silently dropped).
    high_watermark / low_watermark:
        Queue-depth fractions at which the backpressure signal engages
        and releases (hysteresis: engage above high, release below low).
    admit_rate:
        Initial admission rate (readings per polling cycle) of the
        head-end's token bucket.
    admit_burst:
        Token-bucket capacity — the largest single-cycle burst the
        head-end will forward.
    min_admit_rate / max_admit_rate:
        Bounds for the AIMD controller: under backpressure the rate is
        multiplied by ``aimd_decrease``; when pressure clears it grows
        by ``aimd_increase`` per cycle.
    aimd_increase / aimd_decrease:
        The additive-increase step and the multiplicative-decrease
        factor of the admission rate.
    max_defer_cycles:
        Bounded-starvation guarantee: a consumer whose reading has been
        deferred by admission control for this many consecutive
        candidate cycles is force-admitted (bypassing the bucket), so
        no meter can be starved forever.
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
    admit_rate: float = 64.0
    admit_burst: float = 128.0
    min_admit_rate: float = 1.0
    max_admit_rate: float = 4096.0
    aimd_increase: float = 4.0
    aimd_decrease: float = 0.5
    max_defer_cycles: int = 8
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
        if self.admit_rate <= 0 or self.admit_burst <= 0:
            raise ConfigurationError(
                "admit_rate and admit_burst must be > 0, got "
                f"{self.admit_rate} and {self.admit_burst}"
            )
        if not 0 < self.min_admit_rate <= self.max_admit_rate:
            raise ConfigurationError(
                "admission rate bounds must satisfy 0 < min <= max, got "
                f"{self.min_admit_rate} and {self.max_admit_rate}"
            )
        if self.aimd_increase <= 0:
            raise ConfigurationError(
                f"aimd_increase must be > 0, got {self.aimd_increase}"
            )
        if not 0.0 < self.aimd_decrease < 1.0:
            raise ConfigurationError(
                f"aimd_decrease must be in (0, 1), got {self.aimd_decrease}"
            )
        if self.max_defer_cycles < 1:
            raise ConfigurationError(
                f"max_defer_cycles must be >= 1, got {self.max_defer_cycles}"
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
