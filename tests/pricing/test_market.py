"""Tests for the real-time market simulation."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, PricingError
from repro.pricing.market import (
    Generator,
    RealTimeMarket,
    default_market,
)


@pytest.fixture
def market():
    return RealTimeMarket(
        generators=[
            Generator("base", capacity_kw=100.0, marginal_cost=0.10),
            Generator("mid", capacity_kw=50.0, marginal_cost=0.20),
            Generator("peak", capacity_kw=30.0, marginal_cost=0.40),
        ],
        demand_elasticity=-0.2,
        reference_price=0.20,
    )


class TestCurves:
    def test_demand_decreasing_in_price(self, market):
        d_low = market.demand_at(100.0, 0.10)
        d_high = market.demand_at(100.0, 0.40)
        assert d_low > d_high

    def test_demand_at_reference_is_baseline(self, market):
        assert market.demand_at(120.0, 0.20) == pytest.approx(120.0)


class TestClearing:
    def test_low_demand_clears_on_baseload(self, market):
        result = market.clear(50.0)
        assert result.marginal_generator == "base"
        assert result.price == pytest.approx(0.10)

    def test_medium_demand_climbs_merit_order(self, market):
        result = market.clear(130.0)
        assert result.marginal_generator == "mid"
        assert result.price == pytest.approx(0.20)

    def test_high_demand_reaches_peaker(self, market):
        result = market.clear(170.0)
        assert result.marginal_generator == "peak"
        assert result.price == pytest.approx(0.40)

    def test_scarcity_pricing(self, market):
        """Demand beyond total capacity: price rises along the demand
        curve until consumption falls to capacity."""
        result = market.clear(500.0)
        assert result.cleared_kw == pytest.approx(180.0)
        assert result.price > 0.40
        # The cleared quantity is consistent with the demand curve.
        assert market.demand_at(500.0, result.price) == pytest.approx(
            180.0, rel=1e-6
        )

    def test_price_monotone_in_demand(self, market):
        prices = [market.clear(b).price for b in (20, 80, 130, 170, 400)]
        assert all(a <= b + 1e-12 for a, b in zip(prices, prices[1:]))

    def test_zero_demand(self, market):
        result = market.clear(0.0)
        assert result.cleared_kw == 0.0

    def test_rejects_negative_demand(self, market):
        with pytest.raises(ConfigurationError):
            market.clear(-1.0)


class TestSimulation:
    def test_price_series_follows_demand_profile(self, market):
        profile = np.array([50.0, 130.0, 170.0, 50.0])
        pricing = market.simulate_prices(profile)
        assert pricing.price(0) == pytest.approx(0.10)
        assert pricing.price(1) == pytest.approx(0.20)
        assert pricing.price(2) == pytest.approx(0.40)
        assert pricing.price(3) == pytest.approx(0.10)

    def test_update_period_expansion(self, market):
        pricing = market.simulate_prices(np.array([50.0, 170.0]), update_period=3)
        assert pricing.price(2) == pricing.price(0)
        assert pricing.price(3) != pricing.price(0)

    def test_default_market_sane(self):
        market = default_market(peak_demand_kw=1000.0)
        result = market.clear(500.0)
        assert 0.05 < result.price < 0.50

    def test_rejects_empty_profile(self, market):
        with pytest.raises(ConfigurationError):
            market.simulate_prices(np.array([]))


class TestValidation:
    def test_rejects_empty_stack(self):
        with pytest.raises(ConfigurationError):
            RealTimeMarket(generators=[])

    def test_rejects_positive_elasticity(self):
        with pytest.raises(ConfigurationError):
            RealTimeMarket(
                generators=[Generator("g", 10.0, 0.1)],
                demand_elasticity=0.5,
            )

    def test_rejects_bad_generator(self):
        with pytest.raises(ConfigurationError):
            Generator("g", capacity_kw=0.0, marginal_cost=0.1)
        with pytest.raises(ConfigurationError):
            Generator("g", capacity_kw=10.0, marginal_cost=-0.1)

    def test_rejects_bad_price_queries(self, market):
        with pytest.raises(PricingError):
            market.demand_at(10.0, 0.0)
