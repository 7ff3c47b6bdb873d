"""Seasonal profile model for half-hourly consumption data.

Consumer load shows strong weekly periodicity (Section VII-D: "consumers'
weekly consumption patterns tend to repeat").  :class:`SeasonalProfile`
captures the per-slot weekly mean and standard deviation: the
seasonal-naive forecast of that claim, and the per-slot z-scores of a week
against it.  The module also fixes the slot constants every layer shares.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError, ModelError

#: Half-hour slots in one week.
SLOTS_PER_WEEK = 336
#: Half-hour slots in one day.
SLOTS_PER_DAY = 48


@dataclass(frozen=True)
class SeasonalProfile:
    """Per-slot weekly mean/std learned from a training matrix.

    Attributes
    ----------
    mean:
        Array of length ``period`` with the average reading per slot.
    std:
        Array of length ``period`` with the per-slot standard deviation.
    period:
        Number of slots in one season (336 for weekly half-hour data).
    """

    mean: np.ndarray = field(repr=False)
    std: np.ndarray = field(repr=False)
    period: int = SLOTS_PER_WEEK

    def __post_init__(self) -> None:
        mean = np.asarray(self.mean, dtype=float).ravel()
        std = np.asarray(self.std, dtype=float).ravel()
        if mean.size != self.period or std.size != self.period:
            raise ConfigurationError(
                f"profile arrays must have length {self.period}"
            )
        if np.any(std < 0):
            raise ConfigurationError("per-slot std must be non-negative")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "std", std)

    @classmethod
    def fit(cls, series: np.ndarray, period: int = SLOTS_PER_WEEK) -> "SeasonalProfile":
        """Learn a profile from a flat series whose length is >= 2 periods.

        Trailing readings that do not complete a period are ignored.
        """
        arr = np.asarray(series, dtype=float).ravel()
        n_periods = arr.size // period
        if n_periods < 2:
            raise ModelError(
                f"need >= 2 full periods of {period} slots, got {arr.size} readings"
            )
        matrix = arr[: n_periods * period].reshape(n_periods, period)
        return cls(
            mean=matrix.mean(axis=0), std=matrix.std(axis=0), period=period
        )

    def predict(self, horizon: int, start_slot: int = 0) -> np.ndarray:
        """Seasonal-naive forecast for ``horizon`` slots from ``start_slot``."""
        if horizon < 1:
            raise ConfigurationError(f"horizon must be >= 1, got {horizon}")
        idx = (start_slot + np.arange(horizon)) % self.period
        return self.mean[idx]

    def zscores(self, week: np.ndarray) -> np.ndarray:
        """Per-slot z-scores of one full period of readings."""
        arr = np.asarray(week, dtype=float).ravel()
        if arr.size != self.period:
            raise ConfigurationError(
                f"expected {self.period} readings, got {arr.size}"
            )
        safe_std = np.where(self.std > 1e-9, self.std, 1e-9)
        return (arr - self.mean) / safe_std
