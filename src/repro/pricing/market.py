"""Real-time electricity market simulation.

Section VII-A notes that studying Attack Class 4B properly "would also
require the simulation of a real-time electricity market".  This module
provides that substrate: a merit-order supply stack of generators, a
price-elastic aggregate demand, and a per-period clearing that produces
the real-time price series the ADR machinery consumes.

The clearing solves, per period, for the price where elastic demand
meets the supply stack:  ``D(p) = S(p)`` with ``D`` the Consumer Own
Elasticity aggregate and ``S`` the cumulative capacity of generators
whose marginal cost is at or below ``p``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError, PricingError
from repro.pricing.schemes import RealTimePricing


@dataclass(frozen=True)
class Generator:
    """One step of the merit-order supply stack."""

    name: str
    capacity_kw: float
    marginal_cost: float  # $/kWh

    def __post_init__(self) -> None:
        if self.capacity_kw <= 0:
            raise ConfigurationError(
                f"capacity must be positive, got {self.capacity_kw}"
            )
        if self.marginal_cost < 0:
            raise ConfigurationError(
                f"marginal cost must be >= 0, got {self.marginal_cost}"
            )


@dataclass(frozen=True)
class ClearingResult:
    """Outcome of one period's market clearing."""

    price: float
    cleared_kw: float
    marginal_generator: str


class RealTimeMarket:
    """Merit-order clearing against elastic aggregate demand.

    Parameters
    ----------
    generators:
        The supply stack (sorted internally by marginal cost).
    demand_elasticity:
        Elasticity of the aggregate demand (< 0).
    reference_price:
        Price at which the baseline demand is quoted.
    """

    def __init__(
        self,
        generators: list[Generator],
        demand_elasticity: float = -0.2,
        reference_price: float = 0.20,
    ) -> None:
        if not generators:
            raise ConfigurationError("market needs at least one generator")
        if demand_elasticity >= 0:
            raise ConfigurationError(
                f"demand elasticity must be negative, got {demand_elasticity}"
            )
        if reference_price <= 0:
            raise ConfigurationError(
                f"reference price must be positive, got {reference_price}"
            )
        self.stack = sorted(generators, key=lambda g: g.marginal_cost)
        self.elasticity = float(demand_elasticity)
        self.reference_price = float(reference_price)

    # ------------------------------------------------------------------
    # Curves
    # ------------------------------------------------------------------

    def demand_at(self, baseline_kw: float, price: float) -> float:
        """Elastic aggregate demand at ``price``."""
        if baseline_kw < 0:
            raise ConfigurationError(
                f"baseline must be >= 0, got {baseline_kw}"
            )
        if price <= 0:
            raise PricingError(f"price must be positive, got {price}")
        return baseline_kw * (price / self.reference_price) ** self.elasticity

    @property
    def total_capacity_kw(self) -> float:
        return float(sum(g.capacity_kw for g in self.stack))

    # ------------------------------------------------------------------
    # Clearing
    # ------------------------------------------------------------------

    def clear(self, baseline_kw: float) -> ClearingResult:
        """Clear one period for a baseline demand level.

        Walks the merit order: the clearing price is the marginal cost
        of the first generator whose cumulative capacity covers the
        elastic demand evaluated at that cost.  If even the most
        expensive unit cannot cover demand, the price rises along the
        demand curve until demand falls to total capacity (scarcity
        pricing).
        """
        if baseline_kw < 0:
            raise ConfigurationError(
                f"baseline must be >= 0, got {baseline_kw}"
            )
        if baseline_kw == 0:
            cheapest = self.stack[0]
            return ClearingResult(
                price=cheapest.marginal_cost,
                cleared_kw=0.0,
                marginal_generator=cheapest.name,
            )
        cumulative = 0.0
        for generator in self.stack:
            cumulative += generator.capacity_kw
            price = max(generator.marginal_cost, 1e-6)
            if self.demand_at(baseline_kw, price) <= cumulative:
                cleared = self.demand_at(baseline_kw, price)
                return ClearingResult(
                    price=price,
                    cleared_kw=cleared,
                    marginal_generator=generator.name,
                )
        # Scarcity: solve D(p) = total capacity analytically.
        capacity = self.total_capacity_kw
        price = self.reference_price * (capacity / baseline_kw) ** (
            1.0 / self.elasticity
        )
        price = max(price, self.stack[-1].marginal_cost)
        return ClearingResult(
            price=float(price),
            cleared_kw=capacity,
            marginal_generator=self.stack[-1].name,
        )

    def simulate_prices(
        self,
        baseline_profile_kw: np.ndarray,
        update_period: int = 1,
    ) -> RealTimePricing:
        """Clear a whole horizon and package it as an RTP scheme.

        ``baseline_profile_kw`` gives the aggregate baseline demand per
        *price-update interval* (one clearing per entry).
        """
        profile = np.asarray(baseline_profile_kw, dtype=float).ravel()
        if profile.size == 0:
            raise ConfigurationError("baseline profile must be non-empty")
        prices = np.array([self.clear(float(b)).price for b in profile])
        return RealTimePricing(prices=prices, update_period=update_period)


def default_market(peak_demand_kw: float = 1000.0) -> RealTimeMarket:
    """A plausible three-technology stack scaled to a peak demand."""
    return RealTimeMarket(
        generators=[
            Generator("baseload", capacity_kw=0.6 * peak_demand_kw, marginal_cost=0.12),
            Generator("mid-merit", capacity_kw=0.3 * peak_demand_kw, marginal_cost=0.20),
            Generator("peaker", capacity_kw=0.2 * peak_demand_kw, marginal_cost=0.35),
        ],
        demand_elasticity=-0.2,
    )
