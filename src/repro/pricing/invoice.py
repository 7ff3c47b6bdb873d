"""Billing cycles and invoices.

The attack model is defined over a billing cycle of T periods (eq 1-2),
and Section VI-A notes that stolen electricity "is either paid for by the
utility itself or jointly paid as service fees by all the consumers".
This module produces per-consumer invoices from reported readings and
implements both recovery models so examples and tests can show exactly
who ends up paying for Mallory.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from repro.errors import PricingError
from repro.pricing.billing import DEFAULT_DT_HOURS
from repro.pricing.schemes import PricingScheme, TimeOfUsePricing


@dataclass(frozen=True)
class Invoice:
    """One consumer's bill for a cycle.

    ``line_items`` maps a price ($/kWh) to the energy (kWh) billed at
    that price; ``service_fee`` carries any socialised theft recovery.
    """

    consumer_id: str
    line_items: dict[float, float] = field(repr=False)
    service_fee: float = 0.0

    @property
    def energy_kwh(self) -> float:
        return float(sum(self.line_items.values()))

    @property
    def energy_charge(self) -> float:
        return float(
            sum(price * kwh for price, kwh in self.line_items.items())
        )

    @property
    def total(self) -> float:
        return self.energy_charge + self.service_fee

    def with_service_fee(self, fee: float) -> "Invoice":
        if fee < 0:
            raise PricingError(f"service fee must be >= 0, got {fee}")
        return Invoice(
            consumer_id=self.consumer_id,
            line_items=dict(self.line_items),
            service_fee=float(fee),
        )


def make_invoice(
    consumer_id: str,
    reported: np.ndarray,
    pricing: PricingScheme,
    dt_hours: float = DEFAULT_DT_HOURS,
    start: int = 0,
) -> Invoice:
    """Bill one consumer's reported readings for a cycle."""
    arr = np.asarray(reported, dtype=float).ravel()
    if arr.size == 0:
        raise PricingError("reported readings must be non-empty")
    if np.any(arr < 0):
        raise PricingError("reported readings must be >= 0")
    if dt_hours <= 0:
        raise PricingError(f"dt_hours must be positive, got {dt_hours}")
    prices = pricing.price_vector(arr.size, start=start)
    line_items: dict[float, float] = {}
    for price, demand in zip(prices, arr):
        key = float(round(price, 10))
        line_items[key] = line_items.get(key, 0.0) + float(demand) * dt_hours
    return Invoice(consumer_id=consumer_id, line_items=line_items)


@dataclass(frozen=True)
class BillingCycleResult:
    """Outcome of billing a population for one cycle."""

    invoices: dict[str, Invoice] = field(repr=False)
    supplied_kwh: float = 0.0
    billed_kwh: float = 0.0

    @property
    def unaccounted_kwh(self) -> float:
        """Supplied minus billed energy: the utility's physical loss."""
        return self.supplied_kwh - self.billed_kwh


def bill_cycle(
    reported: Mapping[str, np.ndarray],
    actual: Mapping[str, np.ndarray],
    pricing: PricingScheme | None = None,
    dt_hours: float = DEFAULT_DT_HOURS,
    start: int = 0,
    socialise_losses: bool = False,
    loss_recovery_rate: float | None = None,
) -> BillingCycleResult:
    """Bill a population and optionally socialise unaccounted energy.

    ``socialise_losses=True`` implements the paper's "jointly paid as
    service fees" model: the unaccounted energy is priced at
    ``loss_recovery_rate`` (default: the tariff's mean price over the
    cycle) and split across consumers in proportion to their billed
    energy.  Otherwise the utility absorbs the loss.
    """
    if set(reported) != set(actual):
        raise PricingError("reported and actual consumer sets differ")
    if not reported:
        raise PricingError("cannot bill an empty population")
    tariff = pricing if pricing is not None else TimeOfUsePricing()
    invoices: dict[str, Invoice] = {}
    supplied = 0.0
    billed = 0.0
    for cid in reported:
        rep = np.asarray(reported[cid], dtype=float).ravel()
        act = np.asarray(actual[cid], dtype=float).ravel()
        if rep.size != act.size:
            raise PricingError(f"{cid!r}: reported/actual length mismatch")
        invoices[cid] = make_invoice(cid, rep, tariff, dt_hours, start)
        supplied += float(act.sum()) * dt_hours
        billed += float(rep.sum()) * dt_hours
    result = BillingCycleResult(
        invoices=invoices, supplied_kwh=supplied, billed_kwh=billed
    )
    if not socialise_losses or result.unaccounted_kwh <= 0:
        return result
    n_slots = len(next(iter(reported.values())))
    if loss_recovery_rate is None:
        loss_recovery_rate = float(
            tariff.price_vector(n_slots, start=start).mean()
        )
    recovery = result.unaccounted_kwh * loss_recovery_rate
    total_billed_energy = sum(inv.energy_kwh for inv in invoices.values())
    if total_billed_energy <= 0:
        return result
    with_fees = {
        cid: inv.with_service_fee(
            recovery * inv.energy_kwh / total_billed_energy
        )
        for cid, inv in invoices.items()
    }
    return BillingCycleResult(
        invoices=with_fees, supplied_kwh=supplied, billed_kwh=billed
    )
