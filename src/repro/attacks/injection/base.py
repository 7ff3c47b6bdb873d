"""Injection framework: contexts, vectors, and the injector interface."""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.attacks.classes import AttackClass
from repro.errors import InjectionError
from repro.pricing.billing import (
    DEFAULT_DT_HOURS,
    attacker_profit,
    neighbour_loss,
    stolen_energy_kwh,
)
from repro.pricing.schemes import PricingScheme
from repro.timeseries.seasonal import SLOTS_PER_WEEK


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class InjectionContext:
    """Everything an injector may use to craft a one-week attack vector.

    The attacker is assumed to passively monitor the compromised meter, so
    she has the same training history — and can replicate the same ARIMA
    confidence band — as the utility (Section VIII-B1).

    Attributes
    ----------
    train_matrix:
        ``(M, 336)`` historic weeks of the subject meter.
    actual_week:
        The true consumption of the attacked week (the readings that
        *would* have been reported without the attack).
    band_lower / band_upper:
        The replicated ARIMA confidence band for the attacked week.
    start_slot:
        Global slot index of the week's first reading (for pricing).

    The context is a snapshot: the arrays must not be changed after
    construction.
    """

    train_matrix: np.ndarray = field(repr=False)
    actual_week: np.ndarray = field(repr=False)
    band_lower: np.ndarray = field(repr=False)
    band_upper: np.ndarray = field(repr=False)
    start_slot: int = 0

    def __post_init__(self) -> None:
        matrix = np.asarray(self.train_matrix, dtype=float)
        if matrix.ndim != 2 or matrix.shape[1] != SLOTS_PER_WEEK:
            raise InjectionError(
                f"train_matrix must be (weeks, {SLOTS_PER_WEEK}), got {matrix.shape}"
            )
        object.__setattr__(self, "train_matrix", matrix)
        for name in ("actual_week", "band_lower", "band_upper"):
            arr = np.asarray(getattr(self, name), dtype=float).ravel()
            if arr.size != SLOTS_PER_WEEK:
                raise InjectionError(
                    f"{name} must have {SLOTS_PER_WEEK} values, got {arr.size}"
                )
            object.__setattr__(self, name, arr)
        if np.any(self.band_lower > self.band_upper):
            raise InjectionError("band_lower must not exceed band_upper")

    # The weekly moments are computed once per context (every Integrated
    # ARIMA draw reads them) and handed out read-only, so no caller can
    # change what the next draw sees.

    @cached_property
    def weekly_means(self) -> np.ndarray:
        """Mean of each training week (the Integrated detector's range)."""
        return _read_only(self.train_matrix.mean(axis=1))

    @cached_property
    def weekly_variances(self) -> np.ndarray:
        """Variance of each training week."""
        return _read_only(self.train_matrix.var(axis=1))


@dataclass(frozen=True)
class AttackVector:
    """One injected week: the subject meter's reported vs actual readings.

    For Attack Class 1B the *subject* is a victimised neighbour (readings
    over-reported); for 2A/2B and 3A/3B the subject is Mallory herself.
    """

    attack_class: AttackClass
    reported: np.ndarray = field(repr=False)
    actual: np.ndarray = field(repr=False)
    description: str = ""

    def __post_init__(self) -> None:
        for name in ("reported", "actual"):
            arr = np.asarray(getattr(self, name), dtype=float).ravel()
            if arr.size != SLOTS_PER_WEEK:
                raise InjectionError(
                    f"{name} must have {SLOTS_PER_WEEK} values, got {arr.size}"
                )
            if np.any(arr < 0):
                raise InjectionError(f"{name} must be >= 0")
            object.__setattr__(self, name, arr)

    def stolen_kwh(self, dt_hours: float = DEFAULT_DT_HOURS) -> float:
        """Electricity stolen through this subject's meter, in kWh.

        Over-reporting classes (1B et al.) steal ``reported - actual``
        from the subject; under-reporting classes steal
        ``actual - reported`` from the utility; load-shift classes steal
        no net energy.
        """
        if self.attack_class.over_reports_neighbour and self.attack_class in (
            AttackClass.CLASS_1B,
            AttackClass.CLASS_4B,
        ):
            return max(0.0, -stolen_energy_kwh(self.actual, self.reported, dt_hours))
        if self.attack_class in (AttackClass.CLASS_3A, AttackClass.CLASS_3B):
            return 0.0
        return max(0.0, stolen_energy_kwh(self.actual, self.reported, dt_hours))

    def profit(
        self,
        pricing: PricingScheme | np.ndarray,
        dt_hours: float = DEFAULT_DT_HOURS,
        start: int | None = None,
    ) -> float:
        """Mallory's monetary gain from this subject's meter, in dollars."""
        start_slot = 0 if start is None else start
        if self.attack_class in (AttackClass.CLASS_1B, AttackClass.CLASS_4B):
            return max(
                0.0,
                neighbour_loss(
                    self.actual, self.reported, pricing, dt_hours, start_slot
                ),
            )
        return max(
            0.0,
            attacker_profit(
                self.actual, self.reported, pricing, dt_hours, start_slot
            ),
        )


class AttackInjector(ABC):
    """Builds attack vectors for a subject meter from an injection context."""

    #: Short name used in result tables.
    name: str = "attack"
    #: The class this injector realises.
    attack_class: AttackClass

    @abstractmethod
    def inject(
        self, context: InjectionContext, rng: np.random.Generator
    ) -> AttackVector:
        """Craft one attack vector."""

    def inject_many(
        self, context: InjectionContext, rng: np.random.Generator, count: int
    ) -> list[AttackVector]:
        """Craft ``count`` vectors (one per stochastic trajectory).

        Deterministic injectors return identical vectors; the evaluation
        de-duplicates nothing, matching the paper's 50-trajectory design.
        """
        if count < 1:
            raise InjectionError(f"count must be >= 1, got {count}")
        return [self.inject(context, rng) for _ in range(count)]
