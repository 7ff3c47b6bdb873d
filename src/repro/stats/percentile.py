"""Empirical distributions and percentile thresholds.

The KLD detector thresholds the distribution of training-set divergences at
its 90th and 95th percentiles (Section VII-D).  These helpers keep the
threshold semantics in one place.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError


def percentile(values: np.ndarray, q: float) -> float:
    """The ``q``-th percentile of ``values`` (linear interpolation)."""
    arr = np.asarray(values, dtype=float).ravel()
    if arr.size == 0:
        raise ConfigurationError("cannot take a percentile of empty data")
    if not 0.0 <= q <= 100.0:
        raise ConfigurationError(f"percentile must be in [0, 100], got {q}")
    return float(np.percentile(arr, q))


@dataclass(frozen=True)
class EmpiricalDistribution:
    """Frozen empirical distribution of scalar observations.

    Supports percentile queries and upper-tail hypothesis tests: a new
    observation rejects the null ("drawn from this distribution") at
    significance level ``alpha`` when it exceeds the
    ``(1 - alpha)``-quantile.
    """

    samples: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        arr = np.sort(np.asarray(self.samples, dtype=float).ravel())
        if arr.size == 0:
            raise ConfigurationError("empirical distribution needs >= 1 sample")
        if np.any(~np.isfinite(arr)):
            raise ConfigurationError("samples must be finite")
        object.__setattr__(self, "samples", arr)

    @property
    def size(self) -> int:
        return int(self.samples.size)

    def percentile(self, q: float) -> float:
        return percentile(self.samples, q)

    def upper_tail_threshold(self, alpha: float) -> float:
        """Threshold above which the null is rejected at level ``alpha``."""
        if not 0.0 < alpha < 1.0:
            raise ConfigurationError(f"alpha must be in (0, 1), got {alpha}")
        return self.percentile(100.0 * (1.0 - alpha))
