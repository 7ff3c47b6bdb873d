"""Per-cycle time budgets with overrun accounting.

A polling cycle that completes a week runs the whole pipeline —
firewall screening, WAL append, gap repair, detector scoring — and
under overload any of those stages can eat the cycle's budget.  A
:class:`Deadline` is created once per cycle and handed to every stage
window (:meth:`~repro.core.online.TheftMonitoringService.stage`, which
also times the stage into ``fdeta_stage_seconds{stage=...}``); each
stage that finishes past the budget records a deadline overrun
(``fdeta_deadline_overruns_total`` plus, for the first one, an
overrun-magnitude histogram and a structured event).  Stages never
abort mid-flight; downstream code *asks* the deadline whether to keep
going (``deadline.expired``) and degrades gracefully — shedding the
rest of the scoring pass — instead of being interrupted.

The clock is injectable so overload tests are deterministic: a fake
clock advanced by the test stands in for ``perf_counter``.
"""

from __future__ import annotations

from time import perf_counter
from typing import TYPE_CHECKING, Callable

from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.observability.events import EventLogger
    from repro.observability.metrics import MetricsRegistry

__all__ = ["Deadline", "STAGE_SECONDS_BUCKETS"]

#: Buckets for per-stage latencies and overrun magnitudes (seconds).
STAGE_SECONDS_BUCKETS: tuple[float, ...] = (
    0.0001,
    0.0005,
    0.001,
    0.005,
    0.01,
    0.05,
    0.1,
    0.5,
    1.0,
    5.0,
    30.0,
)


class Deadline:
    """Wall-clock budget for one polling cycle, with overrun accounting.

    Parameters
    ----------
    budget_s:
        Seconds the whole cycle may spend; ``None`` means unlimited
        (overruns never fire).
    clock:
        Monotonic time source; injectable for deterministic tests.
    metrics / events:
        Optional sinks for overrun counters and the
        ``deadline_overrun`` structured event.
    cycle:
        Polling-cycle index carried into events for correlation.
    """

    def __init__(
        self,
        budget_s: float | None,
        clock: Callable[[], float] = perf_counter,
        metrics: "MetricsRegistry | None" = None,
        events: "EventLogger | None" = None,
        cycle: int | None = None,
    ) -> None:
        if budget_s is not None and budget_s <= 0:
            raise ConfigurationError(
                f"deadline budget must be > 0 seconds, got {budget_s}"
            )
        self.budget_s = None if budget_s is None else float(budget_s)
        self._clock = clock
        self.metrics = metrics
        self.events = events
        self.cycle = cycle
        self._started = clock()
        self.overrun_stages: list[str] = []
        self._overrun_recorded = False

    # ------------------------------------------------------------------
    # Budget queries
    # ------------------------------------------------------------------

    def elapsed(self) -> float:
        """Seconds spent since the deadline was created."""
        return self._clock() - self._started

    @property
    def expired(self) -> bool:
        """Whether the cycle's budget has been spent."""
        return self.budget_s is not None and self.elapsed() >= self.budget_s

    def check(self, stage: str) -> None:
        """Record an overrun if the budget is spent as ``stage`` ends."""
        if self.expired:
            self._record_overrun(stage)

    def _record_overrun(self, stage: str) -> None:
        self.overrun_stages.append(stage)
        overrun_by = max(0.0, self.elapsed() - (self.budget_s or 0.0))
        if self.metrics is not None:
            self.metrics.counter(
                "fdeta_deadline_overruns_total",
                "Cycle stages that finished past the cycle deadline.",
                labels=("stage",),
            ).inc(stage=stage)
            if not self._overrun_recorded:
                self.metrics.histogram(
                    "fdeta_deadline_overrun_seconds",
                    "How far past its budget an overrunning cycle went "
                    "(first overrunning stage only).",
                    buckets=STAGE_SECONDS_BUCKETS,
                ).observe(overrun_by)
        if self.events is not None and not self._overrun_recorded:
            self.events.warning(
                "deadline_overrun",
                stage=stage,
                cycle=self.cycle,
                budget_s=self.budget_s,
                elapsed_s=self.elapsed(),
                overrun_by_s=overrun_by,
            )
        self._overrun_recorded = True

    @property
    def overran(self) -> bool:
        """Whether any stage finished past the budget."""
        return bool(self.overrun_stages)
