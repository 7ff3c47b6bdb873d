"""Electricity pricing schemes (Section III of the paper)."""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field

import numpy as np

from repro.errors import PricingError
from repro.timeseries.seasonal import SLOTS_PER_DAY


def _slot_range(n_slots: int, start: int) -> np.ndarray:
    """Global slot indices ``start, ..., start + n_slots - 1``."""
    if n_slots < 0:
        raise PricingError(f"n_slots must be >= 0, got {n_slots}")
    if start < 0 and n_slots > 0:
        raise PricingError(f"time period must be >= 0, got {start}")
    return np.arange(start, start + n_slots)


class PricingScheme(ABC):
    """Price per kWh as a function of the discrete time period ``t``.

    Time periods are global half-hour slot indices starting at 0, with
    slot 0 beginning at midnight (so slot ``t % 48`` is the slot-of-day).
    Each scheme implements :meth:`price_vector` as array arithmetic over
    the slot indices; the scalar :meth:`price` is a one-slot view of it.
    """

    def price(self, t: int) -> float:
        """Electricity price lambda(t) in $/kWh at time period ``t``."""
        return float(self.price_vector(1, start=t)[0])

    @abstractmethod
    def price_vector(self, n_slots: int, start: int = 0) -> np.ndarray:
        """Prices for ``n_slots`` consecutive periods from ``start``."""

    @property
    @abstractmethod
    def is_variable(self) -> bool:
        """True when the price changes over time (TOU or RTP)."""


@dataclass(frozen=True)
class FlatRatePricing(PricingScheme):
    """Constant price throughout the billing cycle."""

    rate: float = 0.20

    def __post_init__(self) -> None:
        if self.rate < 0:
            raise PricingError(f"rate must be >= 0, got {self.rate}")

    def price_vector(self, n_slots: int, start: int = 0) -> np.ndarray:
        return np.full(_slot_range(n_slots, start).size, float(self.rate))

    @property
    def is_variable(self) -> bool:
        return False


@dataclass(frozen=True)
class TimeOfUsePricing(PricingScheme):
    """Two-period time-of-use tariff.

    Defaults mirror the Electric Ireland Nightsaver plan the paper uses:
    peak 9:00am-midnight at 0.21 $/kWh, off-peak midnight-9:00am at
    0.18 $/kWh.  ``peak_start_slot`` and ``peak_end_slot`` are slot-of-day
    indices (half-hours from midnight); the peak window is
    ``[peak_start_slot, peak_end_slot)``.
    """

    peak_rate: float = 0.21
    offpeak_rate: float = 0.18
    peak_start_slot: int = 18  # 9:00am
    peak_end_slot: int = SLOTS_PER_DAY  # midnight

    def __post_init__(self) -> None:
        if self.peak_rate < 0 or self.offpeak_rate < 0:
            raise PricingError("rates must be >= 0")
        if not 0 <= self.peak_start_slot < self.peak_end_slot <= SLOTS_PER_DAY:
            raise PricingError(
                "peak window must satisfy 0 <= start < end <= "
                f"{SLOTS_PER_DAY}, got [{self.peak_start_slot}, {self.peak_end_slot})"
            )

    def peak_mask(self, n_slots: int, start: int = 0) -> np.ndarray:
        """Boolean mask of peak slots over a window."""
        slot_of_day = _slot_range(n_slots, start) % SLOTS_PER_DAY
        return (self.peak_start_slot <= slot_of_day) & (
            slot_of_day < self.peak_end_slot
        )

    def price_vector(self, n_slots: int, start: int = 0) -> np.ndarray:
        return np.where(
            self.peak_mask(n_slots, start),
            float(self.peak_rate),
            float(self.offpeak_rate),
        )

    @property
    def is_variable(self) -> bool:
        return True


#: The tariff used throughout the paper's evaluation (Section VIII-C).
ELECTRIC_IRELAND_NIGHTSAVER = TimeOfUsePricing()


@dataclass(frozen=True)
class RealTimePricing(PricingScheme):
    """Real-time pricing driven by an exogenous price series.

    ``update_period`` models the paper's ``k * dt`` price-update cadence:
    the underlying series advances once every ``update_period`` polling
    slots.
    """

    prices: np.ndarray = field(repr=False)
    update_period: int = 1

    def __post_init__(self) -> None:
        arr = np.asarray(self.prices, dtype=float).ravel()
        if arr.size == 0:
            raise PricingError("RTP needs a non-empty price series")
        if np.any(arr < 0):
            raise PricingError("RTP prices must be >= 0")
        if self.update_period < 1:
            raise PricingError(
                f"update_period must be >= 1, got {self.update_period}"
            )
        object.__setattr__(self, "prices", arr)

    @classmethod
    def simulate(
        cls,
        n_slots: int,
        mean: float = 0.20,
        volatility: float = 0.03,
        update_period: int = 2,
        seed: int | np.random.Generator = 0,
    ) -> "RealTimePricing":
        """Generate a mean-reverting (AR(1)) synthetic price series."""
        if n_slots < 1:
            raise PricingError(f"n_slots must be >= 1, got {n_slots}")
        rng = (
            seed
            if isinstance(seed, np.random.Generator)
            else np.random.default_rng(seed)
        )
        n_updates = -(-n_slots // update_period)
        prices = np.empty(n_updates)
        level = mean
        for i in range(n_updates):
            level = mean + 0.9 * (level - mean) + rng.normal(0.0, volatility)
            prices[i] = max(0.01, level)
        return cls(prices=prices, update_period=update_period)

    def price_vector(self, n_slots: int, start: int = 0) -> np.ndarray:
        idx = _slot_range(n_slots, start) // self.update_period
        if idx.size and idx[-1] >= self.prices.size:
            horizon = self.prices.size * self.update_period
            raise PricingError(
                f"time period {max(start, horizon)} beyond the RTP series "
                f"horizon ({horizon} slots)"
            )
        return self.prices[idx]

    @property
    def is_variable(self) -> bool:
        return True
