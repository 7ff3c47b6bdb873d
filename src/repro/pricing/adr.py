"""Automated Demand Response with the Consumer Own Elasticity model.

Attack Class 4B compromises the price signal seen by a neighbour's ADR
interface: an inflated price makes the interface shed load, freeing
headroom that Mallory consumes.  The paper leaves 4B's evaluation to
future work; this module provides the simulation substrate for our
extension experiment (DESIGN.md, X3).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError, PricingError


@dataclass(frozen=True)
class ElasticConsumer:
    """Constant-elasticity demand response (Consumer Own Elasticity).

    Demand at price ``p`` is ``baseline * (p / reference_price) ** elasticity``
    with ``elasticity < 0``: consumption is a monotonically decreasing
    function of price, as the paper requires.
    """

    elasticity: float = -0.3
    reference_price: float = 0.20

    def __post_init__(self) -> None:
        if self.elasticity >= 0:
            raise ConfigurationError(
                f"elasticity must be negative, got {self.elasticity}"
            )
        if self.reference_price <= 0:
            raise ConfigurationError(
                f"reference price must be positive, got {self.reference_price}"
            )

    def demand(self, baseline_kw: float, price: float) -> float:
        """Responsive demand for a baseline draw at the given price."""
        if baseline_kw < 0:
            raise ConfigurationError(f"baseline must be >= 0, got {baseline_kw}")
        if price <= 0:
            raise PricingError(f"price must be positive, got {price}")
        return baseline_kw * (price / self.reference_price) ** self.elasticity

    def demand_vector(
        self, baseline_kw: np.ndarray, prices: np.ndarray
    ) -> np.ndarray:
        """Vectorised :meth:`demand`."""
        base = np.asarray(baseline_kw, dtype=float).ravel()
        lam = np.asarray(prices, dtype=float).ravel()
        if base.size != lam.size:
            raise PricingError(
                f"baseline length {base.size} != price length {lam.size}"
            )
        if np.any(base < 0):
            raise ConfigurationError("baselines must be >= 0")
        if np.any(lam <= 0):
            raise PricingError("prices must be positive")
        return base * (lam / self.reference_price) ** self.elasticity


@dataclass
class ADRInterface:
    """The consumer-side ADR endpoint (OpenADR/EMIX-style).

    Receives the utility's price signal — possibly tampered with in
    transit — and drives the consumer's responsive load accordingly.
    ``price_multiplier > 1`` models Mallory inflating the price the victim
    sees (Attack Class 4B).
    """

    consumer: ElasticConsumer
    price_multiplier: float = 1.0

    def compromise(self, price_multiplier: float) -> None:
        """Tamper with the incoming price signal."""
        if price_multiplier <= 0:
            raise PricingError(
                f"multiplier must be positive, got {price_multiplier}"
            )
        self.price_multiplier = float(price_multiplier)

    def restore(self) -> None:
        self.price_multiplier = 1.0

    def respond_vector(
        self, baseline_kw: np.ndarray, true_prices: np.ndarray
    ) -> np.ndarray:
        """The victim's actual consumption per slot under the (possibly
        forged) price signal ``lambda'_n(t)`` it observes."""
        lam = np.asarray(true_prices, dtype=float).ravel() * self.price_multiplier
        return self.consumer.demand_vector(baseline_kw, lam)
