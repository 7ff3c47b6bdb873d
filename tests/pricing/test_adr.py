"""Unit tests for ADR and the Consumer Own Elasticity model."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, PricingError
from repro.pricing.adr import ADRInterface, ElasticConsumer


class TestElasticConsumer:
    def test_demand_at_reference_price_is_baseline(self):
        consumer = ElasticConsumer(elasticity=-0.5, reference_price=0.2)
        assert consumer.demand(3.0, 0.2) == pytest.approx(3.0)

    def test_demand_monotonically_decreasing_in_price(self):
        """The paper's requirement: consumption is a monotonically
        decreasing function of price."""
        consumer = ElasticConsumer(elasticity=-0.3)
        prices = np.linspace(0.05, 1.0, 50)
        demands = [consumer.demand(2.0, p) for p in prices]
        assert all(a > b for a, b in zip(demands, demands[1:]))

    def test_constant_elasticity_property(self):
        consumer = ElasticConsumer(elasticity=-0.5, reference_price=0.2)
        # Doubling the price scales demand by 2^-0.5.
        ratio = consumer.demand(1.0, 0.4) / consumer.demand(1.0, 0.2)
        assert ratio == pytest.approx(2.0 ** -0.5)

    def test_vectorised_matches_scalar(self, rng):
        consumer = ElasticConsumer()
        base = rng.uniform(0.5, 3.0, size=10)
        prices = rng.uniform(0.1, 0.5, size=10)
        vec = consumer.demand_vector(base, prices)
        scalars = [consumer.demand(b, p) for b, p in zip(base, prices)]
        assert np.allclose(vec, scalars)

    def test_rejects_positive_elasticity(self):
        with pytest.raises(ConfigurationError):
            ElasticConsumer(elasticity=0.3)

    def test_rejects_zero_price(self):
        with pytest.raises(PricingError):
            ElasticConsumer().demand(1.0, 0.0)

    def test_rejects_negative_baseline(self):
        with pytest.raises(ConfigurationError):
            ElasticConsumer().demand(-1.0, 0.2)


class TestADRInterface:
    def test_honest_interface_passes_price_through(self):
        adr = ADRInterface(consumer=ElasticConsumer())
        seen = adr.respond_vector(np.array([2.0]), np.array([0.25]))
        assert seen[0] == pytest.approx(adr.consumer.demand(2.0, 0.25))

    def test_compromise_inflates_price(self):
        adr = ADRInterface(consumer=ElasticConsumer())
        adr.compromise(1.5)
        seen = adr.respond_vector(np.array([2.0]), np.array([0.2]))
        assert seen[0] == pytest.approx(adr.consumer.demand(2.0, 0.3))

    def test_compromise_suppresses_demand(self):
        """The 4B mechanism: inflated price -> ADR sheds load."""
        adr = ADRInterface(consumer=ElasticConsumer(elasticity=-0.5))
        base, prices = np.array([2.0]), np.array([0.2])
        honest = adr.respond_vector(base, prices)
        adr.compromise(2.0)
        suppressed = adr.respond_vector(base, prices)
        assert suppressed[0] < honest[0]

    def test_restore(self):
        adr = ADRInterface(consumer=ElasticConsumer())
        adr.compromise(2.0)
        adr.restore()
        seen = adr.respond_vector(np.array([2.0]), np.array([0.2]))
        assert seen[0] == pytest.approx(adr.consumer.demand(2.0, 0.2))

    def test_respond_vector(self, rng):
        adr = ADRInterface(consumer=ElasticConsumer())
        base = rng.uniform(0.5, 2.0, size=8)
        prices = rng.uniform(0.15, 0.3, size=8)
        honest = adr.respond_vector(base, prices)
        adr.compromise(1.5)
        suppressed = adr.respond_vector(base, prices)
        assert np.all(suppressed < honest)

    def test_rejects_bad_multiplier(self):
        adr = ADRInterface(consumer=ElasticConsumer())
        with pytest.raises(PricingError):
            adr.compromise(0.0)
