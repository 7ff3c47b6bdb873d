"""Forecast value object with confidence intervals."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class Forecast:
    """Multi-step point forecast with symmetric confidence bands.

    Attributes
    ----------
    mean:
        Point forecasts, one per horizon step.
    std:
        Forecast standard errors, one per horizon step.
    z:
        The z-score used for the default interval (e.g. 1.96 for 95%).
    """

    mean: np.ndarray = field(repr=False)
    std: np.ndarray = field(repr=False)
    z: float = 1.959963984540054

    def __post_init__(self) -> None:
        mean = np.asarray(self.mean, dtype=float).ravel()
        std = np.asarray(self.std, dtype=float).ravel()
        if mean.shape != std.shape:
            raise ConfigurationError("mean and std must have equal length")
        if np.any(std < 0):
            raise ConfigurationError("forecast std must be non-negative")
        if self.z <= 0:
            raise ConfigurationError(f"z must be positive, got {self.z}")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "std", std)

    @property
    def horizon(self) -> int:
        return int(self.mean.size)

    @property
    def lower(self) -> np.ndarray:
        """Lower confidence bound at the default z."""
        return self.mean - self.z * self.std

    @property
    def upper(self) -> np.ndarray:
        """Upper confidence bound at the default z."""
        return self.mean + self.z * self.std
