"""Per-consumer circuit breakers for the monitoring pipeline.

A meter whose readings repeatedly go silent or fail validation must not
keep feeding its detector: a half-observed week biases the training
history, and an attacker who can suppress a victim's link could otherwise
blind the control centre one gap at a time.  The classic remedy is the
circuit-breaker state machine (closed → open → half-open) used by
service meshes, applied here per consumer with time measured in polling
cycles rather than wall-clock seconds.

States
------
``CLOSED``
    Normal operation.  Each cycle the consumer either *succeeds* (a
    valid reading arrived) or *fails* (silent, non-finite, or negative);
    ``failure_threshold`` consecutive failures trip the breaker.
``OPEN``
    Quarantine: the consumer is excluded from scoring and training for
    ``cooldown_cycles`` polling cycles.
``HALF_OPEN``
    Probation after the cool-down: ``recovery_probes`` consecutive
    successful cycles re-close the breaker; a single failure re-opens
    it for another full cool-down.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from repro.errors import ConfigurationError


class BreakerState(Enum):
    """The three classic circuit-breaker states."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


@dataclass
class CircuitBreaker:
    """Failure-count breaker with cool-down measured in polling cycles.

    Parameters
    ----------
    failure_threshold:
        Consecutive failed cycles that trip a closed breaker.
    cooldown_cycles:
        Cycles an open breaker waits before probing (half-open).
    recovery_probes:
        Consecutive successful half-open cycles needed to re-close.
    """

    failure_threshold: int = 8
    cooldown_cycles: int = 336
    recovery_probes: int = 4
    state: BreakerState = BreakerState.CLOSED
    _failures: int = field(default=0, repr=False)
    _cooldown_left: int = field(default=0, repr=False)
    _probes: int = field(default=0, repr=False)
    _trips: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ConfigurationError(
                f"failure_threshold must be >= 1, got {self.failure_threshold}"
            )
        if self.cooldown_cycles < 1:
            raise ConfigurationError(
                f"cooldown_cycles must be >= 1, got {self.cooldown_cycles}"
            )
        if self.recovery_probes < 1:
            raise ConfigurationError(
                f"recovery_probes must be >= 1, got {self.recovery_probes}"
            )

    @property
    def trip_count(self) -> int:
        """How many times this breaker has ever tripped open."""
        return self._trips

    @property
    def allows_scoring(self) -> bool:
        """Whether the consumer may participate in detection this week."""
        return self.state is BreakerState.CLOSED

    def record(self, success: bool) -> BreakerState:
        """Advance the breaker by one polling cycle; returns the new state."""
        if self.state is BreakerState.CLOSED:
            if success:
                self._failures = 0
            else:
                self._failures += 1
                if self._failures >= self.failure_threshold:
                    self._trip()
        elif self.state is BreakerState.OPEN:
            self._cooldown_left -= 1
            if self._cooldown_left <= 0:
                self.state = BreakerState.HALF_OPEN
                self._probes = 0
        else:  # HALF_OPEN
            if success:
                self._probes += 1
                if self._probes >= self.recovery_probes:
                    self.state = BreakerState.CLOSED
                    self._failures = 0
            else:
                self._trip()
        return self.state

    def _trip(self) -> None:
        self.state = BreakerState.OPEN
        self._cooldown_left = self.cooldown_cycles
        self._failures = 0
        self._probes = 0
        self._trips += 1


@dataclass
class BreakerBoard:
    """One :class:`CircuitBreaker` per consumer, created lazily.

    The board is the service-facing API: each polling cycle the service
    reports every consumer's success/failure, and at week boundaries asks
    which consumers are quarantined.
    """

    failure_threshold: int = 8
    cooldown_cycles: int = 336
    recovery_probes: int = 4
    breakers: dict[str, CircuitBreaker] = field(default_factory=dict)

    def breaker(self, consumer_id: str) -> CircuitBreaker:
        board = self.breakers.get(consumer_id)
        if board is None:
            board = CircuitBreaker(
                failure_threshold=self.failure_threshold,
                cooldown_cycles=self.cooldown_cycles,
                recovery_probes=self.recovery_probes,
            )
            self.breakers[consumer_id] = board
        return board

    def record(self, consumer_id: str, success: bool) -> BreakerState:
        return self.breaker(consumer_id).record(success)

    def state(self, consumer_id: str) -> BreakerState:
        board = self.breakers.get(consumer_id)
        return board.state if board is not None else BreakerState.CLOSED

    def allows_scoring(self, consumer_id: str) -> bool:
        return self.state(consumer_id) is BreakerState.CLOSED

    def quarantined(self) -> tuple[str, ...]:
        """Consumers whose breakers are currently not closed."""
        return tuple(
            cid
            for cid in sorted(self.breakers)
            if self.breakers[cid].state is not BreakerState.CLOSED
        )

    def trip_count(self, consumer_id: str) -> int:
        board = self.breakers.get(consumer_id)
        return board.trip_count if board is not None else 0

    def state_counts(self) -> dict[BreakerState, int]:
        """How many tracked consumers sit in each breaker state.

        Every state appears as a key (zero-valued when empty) so
        per-state gauges reset cleanly when the last breaker leaves a
        state.
        """
        counts = {state: 0 for state in BreakerState}
        for breaker in self.breakers.values():
            counts[breaker.state] += 1
        return counts
