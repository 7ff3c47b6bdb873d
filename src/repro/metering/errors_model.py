"""Smart meter measurement error model.

Section VII-A cites an EEI study: 99.96% of electronic smart meter
readings fall within +/-2% of the actual value and 99.91% within +/-0.5%.
A zero-mean Gaussian relative error calibrated to the tighter quantile
reproduces both properties (the +/-2% band is then satisfied with
probability >> 99.96%).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import erfinv

from repro.errors import ConfigurationError

#: P(|relative error| < 0.5%) from the EEI study.
_EEI_TIGHT_PROB = 0.9991
#: The corresponding half-width.
_EEI_TIGHT_BAND = 0.005


def _sigma_for_quantile(prob: float, band: float) -> float:
    """Gaussian sigma such that P(|X| < band) == prob."""
    z = float(np.sqrt(2.0) * erfinv(prob))
    return band / z


@dataclass(frozen=True)
class MeasurementErrorModel:
    """Zero-mean Gaussian relative measurement error.

    The default ``sigma`` is calibrated so that 99.91% of readings fall
    within +/-0.5% of truth, matching the EEI accuracy study the paper
    relies on to rule out error-exploiting attacks.
    """

    sigma: float = _sigma_for_quantile(_EEI_TIGHT_PROB, _EEI_TIGHT_BAND)

    def __post_init__(self) -> None:
        if self.sigma < 0:
            raise ConfigurationError(f"sigma must be >= 0, got {self.sigma}")

    @classmethod
    def exact(cls) -> "MeasurementErrorModel":
        """An error-free meter (useful for deterministic tests)."""
        return cls(sigma=0.0)

    def apply(self, true_value: float, rng: np.random.Generator) -> float:
        """A measured reading of ``true_value`` (never negative)."""
        if true_value < 0:
            raise ConfigurationError(f"demand must be >= 0, got {true_value}")
        if self.sigma == 0.0:
            return float(true_value)
        error = rng.normal(0.0, self.sigma)
        return max(0.0, float(true_value * (1.0 + error)))

    def within_band_probability(self, band: float) -> float:
        """P(|relative error| < band) for this model."""
        if band <= 0:
            raise ConfigurationError(f"band must be positive, got {band}")
        if self.sigma == 0.0:
            return 1.0
        from scipy.special import erf

        return float(erf(band / (self.sigma * np.sqrt(2.0))))
