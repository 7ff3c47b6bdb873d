"""Gap-tolerance knobs for the monitoring service's one ingest path."""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.timeseries.seasonal import SLOTS_PER_WEEK


@dataclass(frozen=True)
class ResilienceConfig:
    """Knobs governing fault tolerance in the monitoring service.

    :class:`~repro.core.online.TheftMonitoringService` uses
    ``ResilienceConfig()`` unless given another instance.  Missing or
    quarantined readings become NaN gap markers, short gaps are
    repaired by interpolation at week boundaries, and weeks with
    residual gaps are scored in degraded mode when coverage permits.

    Parameters
    ----------
    failure_threshold:
        Consecutive silent/invalid cycles that trip a consumer's circuit
        breaker (see :mod:`repro.resilience.circuit`).
    cooldown_cycles:
        Polling cycles a tripped breaker stays open before probing.
        Defaults to one week.
    recovery_probes:
        Consecutive good cycles in half-open state needed to re-close.
    max_repair_gap:
        Longest NaN run (in slots) repaired by linear interpolation at
        the week boundary; longer gaps remain missing and reduce the
        week's coverage.
    min_coverage:
        Minimum fraction of observed slots (after repair) a week needs
        to be scored at all; below it the week is suppressed — recorded
        but never alerted on, so an attacker cannot hide behind a link
        they have mostly silenced.
    """

    failure_threshold: int = 8
    cooldown_cycles: int = SLOTS_PER_WEEK
    recovery_probes: int = 4
    max_repair_gap: int = 4
    min_coverage: float = 0.5

    def __post_init__(self) -> None:
        for name in ("failure_threshold", "cooldown_cycles", "recovery_probes"):
            value = getattr(self, name)
            if value < 1:
                raise ConfigurationError(f"{name} must be >= 1, got {value}")
        if self.max_repair_gap < 0:
            raise ConfigurationError(
                f"max_repair_gap must be >= 0, got {self.max_repair_gap}"
            )
        if not 0.0 < self.min_coverage <= 1.0:
            raise ConfigurationError(
                f"min_coverage must be in (0, 1], got {self.min_coverage}"
            )
