"""Property-based tests on billing-cycle and invoice invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.pricing.billing import bill
from repro.pricing.invoice import bill_cycle, make_invoice
from repro.pricing.schemes import TimeOfUsePricing

demand_weeks = arrays(
    dtype=np.float64,
    shape=48,
    elements=st.floats(min_value=0.0, max_value=20.0, allow_nan=False),
)


class TestInvoiceProperties:
    @given(week=demand_weeks)
    @settings(max_examples=40)
    def test_invoice_total_equals_bill(self, week):
        tariff = TimeOfUsePricing()
        invoice = make_invoice("c", week, tariff)
        assert np.isclose(invoice.total, bill(week, tariff), atol=1e-9)

    @given(week=demand_weeks)
    @settings(max_examples=40)
    def test_energy_conserved_in_line_items(self, week):
        invoice = make_invoice("c", week, TimeOfUsePricing())
        assert np.isclose(invoice.energy_kwh, week.sum() * 0.5, atol=1e-9)

    @given(
        week=demand_weeks,
        scale=st.floats(min_value=0.0, max_value=3.0, allow_nan=False),
    )
    @settings(max_examples=40)
    def test_billing_linear_in_demand(self, week, scale):
        tariff = TimeOfUsePricing()
        base = make_invoice("c", week, tariff).total
        scaled = make_invoice("c", week * scale, tariff).total
        assert np.isclose(scaled, base * scale, rtol=1e-9, atol=1e-9)


class TestCycleProperties:
    @given(
        honest=demand_weeks,
        mallory=demand_weeks,
        theft=st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
    )
    @settings(max_examples=30)
    def test_unaccounted_energy_equals_theft(self, honest, mallory, theft):
        actual = {"h": honest, "m": mallory + theft}
        reported = {"h": honest, "m": mallory}
        result = bill_cycle(reported, actual, TimeOfUsePricing())
        assert np.isclose(
            result.unaccounted_kwh, theft * honest.size * 0.5, atol=1e-6
        )

    @given(
        honest=demand_weeks,
        mallory=demand_weeks,
        theft=st.floats(min_value=0.1, max_value=5.0, allow_nan=False),
        rate=st.floats(min_value=0.05, max_value=0.5, allow_nan=False),
    )
    @settings(max_examples=30)
    def test_socialised_fees_recover_exactly_the_loss(
        self, honest, mallory, theft, rate
    ):
        actual = {"h": honest + 0.1, "m": mallory + 0.1 + theft}
        reported = {"h": honest + 0.1, "m": mallory + 0.1}
        result = bill_cycle(
            reported,
            actual,
            TimeOfUsePricing(),
            socialise_losses=True,
            loss_recovery_rate=rate,
        )
        fees = sum(inv.service_fee for inv in result.invoices.values())
        assert np.isclose(fees, result.unaccounted_kwh * rate, rtol=1e-9)

    @given(honest=demand_weeks)
    @settings(max_examples=30)
    def test_honest_cycle_revenue_equals_bills(self, honest):
        tariff = TimeOfUsePricing()
        actual = {"a": honest, "b": honest * 0.5}
        result = bill_cycle(actual, actual, tariff)
        expected = bill(honest, tariff) + bill(honest * 0.5, tariff)
        revenue = sum(inv.total for inv in result.invoices.values())
        assert np.isclose(revenue, expected, atol=1e-9)
        assert np.isclose(result.unaccounted_kwh, 0.0, atol=1e-9)
