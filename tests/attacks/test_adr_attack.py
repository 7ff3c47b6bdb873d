"""Unit tests for the Attack Class 4B ADR price attack."""

import numpy as np
import pytest

from repro.attacks.classes import AttackClass
from repro.attacks.injection.adr_attack import ADRPriceAttack
from repro.errors import InjectionError
from repro.pricing.adr import ElasticConsumer
from repro.pricing.billing import neighbour_loss, perceived_benefit
from repro.pricing.schemes import FlatRatePricing, RealTimePricing
from repro.timeseries.seasonal import SLOTS_PER_WEEK


@pytest.fixture
def rtp():
    return RealTimePricing.simulate(
        n_slots=SLOTS_PER_WEEK, update_period=2, seed=3
    )


class TestADRAttack:
    def test_victim_consumes_less_than_reported(
        self, injection_context, rtp, rng
    ):
        """The 4B condition: D_n(t) < D'_n(t) at every attacked slot."""
        attack = ADRPriceAttack(pricing=rtp, price_multiplier=1.5)
        vector = attack.inject(injection_context, rng)
        assert np.all(vector.actual < vector.reported)

    def test_classified_4b(self, injection_context, rtp, rng):
        vector = ADRPriceAttack(pricing=rtp).inject(injection_context, rng)
        assert vector.attack_class is AttackClass.CLASS_4B

    def test_mallory_gains_what_victim_loses(self, injection_context, rtp, rng):
        attack = ADRPriceAttack(pricing=rtp, price_multiplier=2.0)
        vector = attack.inject(injection_context, rng)
        loss = neighbour_loss(vector.actual, vector.reported, rtp)
        assert vector.profit(rtp) == pytest.approx(loss)
        assert loss > 0

    def test_victim_perceives_a_benefit(self, injection_context, rtp, rng):
        """Eq (11): billed at the true price, the victim thinks he won."""
        attack = ADRPriceAttack(pricing=rtp, price_multiplier=1.8)
        vector = attack.inject(injection_context, rng)
        forged = attack.compromised_prices()
        delta_b = perceived_benefit(
            vector.reported, rtp.price_vector(SLOTS_PER_WEEK), forged
        )
        assert delta_b > 0

    def test_stronger_multiplier_steals_more(self, injection_context, rtp, rng):
        weak = ADRPriceAttack(pricing=rtp, price_multiplier=1.2).inject(
            injection_context, rng
        )
        strong = ADRPriceAttack(pricing=rtp, price_multiplier=2.0).inject(
            injection_context, rng
        )
        assert strong.profit(rtp) > weak.profit(rtp)

    def test_elasticity_controls_suppression(self, injection_context, rtp, rng):
        inelastic = ADRPriceAttack(
            pricing=rtp,
            consumer=ElasticConsumer(elasticity=-0.1),
            price_multiplier=1.5,
        ).inject(injection_context, rng)
        elastic = ADRPriceAttack(
            pricing=rtp,
            consumer=ElasticConsumer(elasticity=-0.8),
            price_multiplier=1.5,
        ).inject(injection_context, rng)
        assert elastic.profit(rtp) > inelastic.profit(rtp)

    def test_balance_preserved_with_mallory_consumption(
        self, injection_context, rtp, rng
    ):
        """Mallory consumes exactly the suppressed load, so the parent
        node's aggregate matches the reported aggregate."""
        attack = ADRPriceAttack(pricing=rtp)
        vector = attack.inject(injection_context, rng)
        extra = np.maximum(vector.reported - vector.actual, 0.0)
        assert np.allclose(vector.actual + extra, vector.reported)

    def test_rejects_flat_rate(self):
        with pytest.raises(InjectionError):
            ADRPriceAttack(pricing=FlatRatePricing())

    def test_rejects_multiplier_below_one(self, rtp):
        with pytest.raises(InjectionError):
            ADRPriceAttack(pricing=rtp, price_multiplier=0.9)
