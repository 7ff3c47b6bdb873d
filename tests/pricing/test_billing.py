"""Unit tests for billing arithmetic (eqs 1, 2, 10, 11)."""

import numpy as np
import pytest

from repro.errors import PricingError
from repro.pricing.billing import (
    attacker_profit,
    bill,
    is_successful_theft,
    neighbour_loss,
    perceived_benefit,
    stolen_energy_kwh,
)
from repro.pricing.schemes import FlatRatePricing, TimeOfUsePricing


class TestBill:
    def test_flat_rate_arithmetic(self):
        # 2 kW for 4 half-hours at 0.2 $/kWh -> 2 * 0.5 * 4 * 0.2 = 0.8 $.
        assert bill(np.full(4, 2.0), FlatRatePricing(0.2)) == pytest.approx(0.8)

    def test_explicit_price_array(self):
        demands = np.array([1.0, 1.0])
        prices = np.array([0.1, 0.3])
        assert bill(demands, prices) == pytest.approx(0.5 * 0.4)

    def test_tou_peak_offpeak_split(self):
        tariff = TimeOfUsePricing()
        # Slot 0 (off-peak) and slot 18 (peak) via the start offset.
        off = bill(np.array([1.0]), tariff, start=0)
        peak = bill(np.array([1.0]), tariff, start=18)
        assert off == pytest.approx(0.09)
        assert peak == pytest.approx(0.105)

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(PricingError):
            bill(np.ones(3), np.ones(2))

    def test_rejects_negative_demand(self):
        with pytest.raises(PricingError):
            bill(np.array([-1.0]), FlatRatePricing())

    def test_rejects_bad_dt(self):
        with pytest.raises(PricingError):
            bill(np.ones(2), FlatRatePricing(), dt_hours=0.0)


class TestAttackerProfit:
    def test_eq1_under_reporting_profits(self):
        actual = np.array([2.0, 2.0])
        reported = np.array([1.0, 1.0])
        profit = attacker_profit(actual, reported, FlatRatePricing(0.2))
        assert profit == pytest.approx(0.2)
        assert is_successful_theft(actual, reported, FlatRatePricing(0.2))

    def test_honest_reporting_no_profit(self):
        actual = np.array([2.0, 2.0])
        assert attacker_profit(actual, actual, FlatRatePricing()) == 0.0
        assert not is_successful_theft(actual, actual, FlatRatePricing())

    def test_load_shift_profit_under_tou(self):
        """Attack Class 3A: swap readings between price periods; the
        energy balance is zero but the money balance is not."""
        tariff = TimeOfUsePricing()
        actual = np.zeros(48)
        actual[0] = 1.0  # off-peak actual
        actual[20] = 5.0  # peak actual
        reported = np.zeros(48)
        reported[0] = 5.0  # big reading moved to off-peak
        reported[20] = 1.0
        assert stolen_energy_kwh(actual, reported) == pytest.approx(0.0)
        profit = attacker_profit(actual, reported, tariff)
        expected = 0.5 * 4.0 * (0.21 - 0.18)
        assert profit == pytest.approx(expected)

    def test_over_reporting_is_negative_profit(self):
        actual = np.array([1.0])
        reported = np.array([3.0])
        assert attacker_profit(actual, reported, FlatRatePricing(0.2)) < 0


class TestNeighbourLoss:
    def test_eq10(self):
        actual = np.array([1.0, 1.0])
        reported = np.array([2.0, 3.0])
        loss = neighbour_loss(actual, reported, FlatRatePricing(0.2))
        assert loss == pytest.approx(0.5 * 0.2 * 3.0)

    def test_loss_is_attacker_gain(self):
        """Conservation: what the neighbour overpays equals what Mallory
        gains (alpha = sum of L_n, Section VI-B)."""
        actual = np.array([1.0, 2.0])
        reported = np.array([2.5, 2.5])
        tariff = TimeOfUsePricing()
        loss = neighbour_loss(actual, reported, tariff)
        gain = -attacker_profit(actual, reported, tariff)
        assert loss == pytest.approx(gain)


class TestPerceivedBenefit:
    def test_eq11_positive_illusion(self):
        """A 4B victim billed at the true (lower) price than his forged
        ADR price believes he benefited."""
        reported = np.array([2.0, 2.0])
        true_prices = np.array([0.2, 0.2])
        forged = np.array([0.3, 0.3])
        delta_b = perceived_benefit(reported, true_prices, forged)
        assert delta_b == pytest.approx(0.5 * 2.0 * 0.1 * 2)
        assert delta_b > 0

    def test_uncompromised_neighbour_sees_zero(self):
        reported = np.array([2.0])
        prices = np.array([0.2])
        assert perceived_benefit(reported, prices, prices) == 0.0

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(PricingError):
            perceived_benefit(np.ones(2), np.ones(2) * 0.2, np.ones(3) * 0.3)


class TestOnePriceVectorPerCall:
    """Each billing call builds its window's price vector exactly once."""

    @staticmethod
    def _counting_tariff():
        calls = []

        class CountingTOU(TimeOfUsePricing):
            def price_vector(self, n_slots, start=0):
                calls.append((n_slots, start))
                return super().price_vector(n_slots, start)

        return CountingTOU(), calls

    @pytest.mark.parametrize(
        "func", [attacker_profit, neighbour_loss, bill]
    )
    def test_pair_functions(self, func):
        tariff, calls = self._counting_tariff()
        args = (np.full(48, 2.0),) if func is bill else (
            np.full(48, 2.0), np.full(48, 1.0)
        )
        reference = func(*args, TimeOfUsePricing(), start=5)
        assert func(*args, tariff, start=5) == reference
        assert calls == [(48, 5)]

    def test_perceived_benefit(self):
        tariff, calls = self._counting_tariff()
        perceived_benefit(np.ones(4), tariff, np.full(4, 0.5), start=18)
        assert calls == [(4, 18)]
