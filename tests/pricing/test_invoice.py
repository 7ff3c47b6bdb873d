"""Tests for billing cycles and invoices."""

import numpy as np
import pytest

from repro.errors import PricingError
from repro.pricing.billing import bill
from repro.pricing.invoice import (
    bill_cycle,
    make_invoice,
)
from repro.pricing.schemes import FlatRatePricing, TimeOfUsePricing
from repro.timeseries.seasonal import SLOTS_PER_WEEK


class TestInvoice:
    def test_line_items_split_by_price(self):
        tariff = TimeOfUsePricing()
        week = np.ones(SLOTS_PER_WEEK)
        invoice = make_invoice("c1", week, tariff)
        assert set(invoice.line_items) == {0.18, 0.21}
        # 18 off-peak + 30 peak half-hours per day.
        assert invoice.line_items[0.18] == pytest.approx(7 * 18 * 0.5)
        assert invoice.line_items[0.21] == pytest.approx(7 * 30 * 0.5)

    def test_total_matches_billing_function(self, rng):
        tariff = TimeOfUsePricing()
        week = rng.uniform(0, 3, size=SLOTS_PER_WEEK)
        invoice = make_invoice("c1", week, tariff)
        assert invoice.total == pytest.approx(bill(week, tariff))

    def test_service_fee_added(self):
        invoice = make_invoice(
            "c1", np.ones(4), FlatRatePricing(0.2)
        ).with_service_fee(1.5)
        assert invoice.total == pytest.approx(invoice.energy_charge + 1.5)

    def test_rejects_negative_fee(self):
        invoice = make_invoice("c1", np.ones(4), FlatRatePricing(0.2))
        with pytest.raises(PricingError):
            invoice.with_service_fee(-1.0)

    def test_rejects_negative_readings(self):
        with pytest.raises(PricingError):
            make_invoice("c1", np.array([-1.0]), FlatRatePricing())


class TestBillCycle:
    def _population(self, rng, theft_kw=0.0):
        actual = {
            "honest": rng.uniform(0.5, 1.5, size=SLOTS_PER_WEEK),
            "mallory": rng.uniform(0.5, 1.5, size=SLOTS_PER_WEEK),
        }
        reported = {cid: week.copy() for cid, week in actual.items()}
        if theft_kw:
            actual["mallory"] = actual["mallory"] + theft_kw  # consumes more
        return reported, actual

    def test_honest_cycle_balances(self, rng):
        reported, actual = self._population(rng)
        result = bill_cycle(reported, actual)
        assert result.unaccounted_kwh == pytest.approx(0.0)
        assert sum(inv.total for inv in result.invoices.values()) > 0

    def test_theft_shows_as_unaccounted_energy(self, rng):
        reported, actual = self._population(rng, theft_kw=2.0)
        result = bill_cycle(reported, actual)
        assert result.unaccounted_kwh == pytest.approx(
            2.0 * SLOTS_PER_WEEK * 0.5
        )

    def test_utility_absorbs_loss_by_default(self, rng):
        reported, actual = self._population(rng, theft_kw=2.0)
        result = bill_cycle(reported, actual)
        for invoice in result.invoices.values():
            assert invoice.service_fee == 0.0

    def test_socialised_losses_become_service_fees(self, rng):
        """Section VI-A: the theft is 'jointly paid as service fees by
        all the consumers' — including the honest one."""
        reported, actual = self._population(rng, theft_kw=2.0)
        result = bill_cycle(
            reported, actual, socialise_losses=True, loss_recovery_rate=0.2
        )
        fees = [inv.service_fee for inv in result.invoices.values()]
        assert all(fee > 0 for fee in fees)
        assert sum(fees) == pytest.approx(result.unaccounted_kwh * 0.2)

    def test_fees_proportional_to_billed_energy(self, rng):
        reported, actual = self._population(rng, theft_kw=1.0)
        reported["honest"] = reported["honest"] * 2.0  # bigger consumer
        actual["honest"] = actual["honest"] * 2.0
        result = bill_cycle(reported, actual, socialise_losses=True)
        fee_ratio = (
            result.invoices["honest"].service_fee
            / result.invoices["mallory"].service_fee
        )
        energy_ratio = (
            result.invoices["honest"].energy_kwh
            / result.invoices["mallory"].energy_kwh
        )
        assert fee_ratio == pytest.approx(energy_ratio)

    def test_rejects_mismatched_populations(self, rng):
        with pytest.raises(PricingError):
            bill_cycle(
                {"a": np.ones(4)}, {"b": np.ones(4)}, FlatRatePricing()
            )

    def test_rejects_empty_population(self):
        with pytest.raises(PricingError):
            bill_cycle({}, {})
