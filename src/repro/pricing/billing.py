"""Billing arithmetic: eqs (1), (2), (10), and (11) of the paper.

Units follow the paper: prices in $/kWh, demands in kW, ``dt`` in hours
(0.5 for half-hour polling), money in $.
"""

from __future__ import annotations

import numpy as np

from repro.errors import PricingError
from repro.pricing.schemes import PricingScheme

#: Half-hour polling period, in hours.
DEFAULT_DT_HOURS = 0.5


def _demands(demands: np.ndarray) -> np.ndarray:
    d = np.asarray(demands, dtype=float).ravel()
    if d.size == 0:
        raise PricingError("demand series must be non-empty")
    if np.any(d < 0):
        raise PricingError("demands must be >= 0")
    return d


def _aligned(
    demands: np.ndarray, prices: np.ndarray | PricingScheme, start: int
) -> tuple[np.ndarray, np.ndarray]:
    d = _demands(demands)
    if isinstance(prices, PricingScheme):
        lam = prices.price_vector(d.size, start=start)
    else:
        lam = np.asarray(prices, dtype=float).ravel()
        if lam.size != d.size:
            raise PricingError(
                f"price series length {lam.size} != demand length {d.size}"
            )
    if np.any(lam < 0):
        raise PricingError("prices must be >= 0")
    return d, lam


def _paired(
    actual: np.ndarray,
    reported: np.ndarray,
    prices: np.ndarray | PricingScheme,
    start: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Both demand series and the one price series they share."""
    a, lam = _aligned(actual, prices, start)
    r = _demands(reported)
    if a.size != r.size:
        raise PricingError(
            f"actual length {a.size} != reported length {r.size}"
        )
    return a, r, lam


def bill(
    demands: np.ndarray,
    prices: np.ndarray | PricingScheme,
    dt_hours: float = DEFAULT_DT_HOURS,
    start: int = 0,
) -> float:
    """Total bill over a cycle: ``sum_t lambda(t) D(t) dt`` in dollars."""
    if dt_hours <= 0:
        raise PricingError(f"dt_hours must be positive, got {dt_hours}")
    d, lam = _aligned(demands, prices, start)
    return float(np.sum(lam * d) * dt_hours)


def attacker_profit(
    actual: np.ndarray,
    reported: np.ndarray,
    prices: np.ndarray | PricingScheme,
    dt_hours: float = DEFAULT_DT_HOURS,
    start: int = 0,
) -> float:
    """Mallory's monetary advantage alpha (eq 2).

    ``alpha = B_utility(actual) - B_utility(reported)``: what she *should*
    pay minus what she *is* billed.  Positive alpha means a successful
    theft (eq 1).
    """
    a, r, lam = _paired(actual, reported, prices, start)
    return float(np.sum(lam * (a - r)) * dt_hours)


def is_successful_theft(
    actual: np.ndarray,
    reported: np.ndarray,
    prices: np.ndarray | PricingScheme,
    dt_hours: float = DEFAULT_DT_HOURS,
    start: int = 0,
) -> bool:
    """Whether the attack condition (eq 1) holds: alpha > 0."""
    return attacker_profit(actual, reported, prices, dt_hours, start) > 0.0


def stolen_energy_kwh(
    actual: np.ndarray, reported: np.ndarray, dt_hours: float = DEFAULT_DT_HOURS
) -> float:
    """Net energy unaccounted for: ``sum_t (D(t) - D'(t)) dt`` in kWh.

    For load-shifting attacks (Class 3A/3B) this is ~0 even though the
    monetary profit is positive.
    """
    a = np.asarray(actual, dtype=float).ravel()
    r = np.asarray(reported, dtype=float).ravel()
    if a.size != r.size:
        raise PricingError(f"actual length {a.size} != reported length {r.size}")
    return float(np.sum(a - r) * dt_hours)


def neighbour_loss(
    neighbour_actual: np.ndarray,
    neighbour_reported: np.ndarray,
    prices: np.ndarray | PricingScheme,
    dt_hours: float = DEFAULT_DT_HOURS,
    start: int = 0,
) -> float:
    """L_n (eq 10): what an over-reported neighbour is overcharged."""
    a, r, lam = _paired(neighbour_actual, neighbour_reported, prices, start)
    return float(np.sum(lam * (r - a)) * dt_hours)


def perceived_benefit(
    neighbour_reported: np.ndarray,
    true_prices: np.ndarray | PricingScheme,
    compromised_prices: np.ndarray,
    dt_hours: float = DEFAULT_DT_HOURS,
    start: int = 0,
) -> float:
    """Delta-B (eq 11): the bill reduction a 4B victim *thinks* he got.

    The victim expects to pay ``sum lambda'(t) D'(t) dt`` (at the inflated
    price his ADR interface saw) but is billed at the true price, so the
    difference looks like a windfall even though eq (10) says he lost
    money to Mallory.
    """
    r, lam_true = _aligned(neighbour_reported, true_prices, start)
    lam_comp = np.asarray(compromised_prices, dtype=float).ravel()
    if lam_comp.size != r.size:
        raise PricingError(
            f"compromised price length {lam_comp.size} != reported length {r.size}"
        )
    if np.any(lam_comp < 0):
        raise PricingError("prices must be >= 0")
    return float(np.sum((lam_comp - lam_true) * r) * dt_hours)
