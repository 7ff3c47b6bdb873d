"""Adversarial planning: which attack class pays best against a given
defense posture?

The defender-side value of the taxonomy (Section VI) is knowing what the
*optimal* adversary would do.  :func:`plan_attack` evaluates the analytic
gain caps of :mod:`repro.attacks.bounds` for every attack class available
under the deployed pricing scheme and defense posture, and returns the
classes ranked by their worst-case weekly gain — the quantity a security
team would use to prioritise mitigations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.attacks.bounds import (
    max_over_report_under_band,
    max_over_report_under_moment_checks,
    max_swap_profit,
    max_theft_under_band,
    max_theft_under_min_average,
)
from repro.attacks.classes import AttackClass
from repro.errors import ConfigurationError
from repro.pricing.billing import DEFAULT_DT_HOURS
from repro.pricing.schemes import PricingScheme, TimeOfUsePricing
from repro.timeseries.seasonal import SLOTS_PER_WEEK


@dataclass(frozen=True)
class DefensePosture:
    """What the utility has deployed.

    Attributes
    ----------
    balance_check:
        A trusted balance meter upstream of the attacker (makes the 'A'
        classes detectable, forcing the attacker into 'B' variants).
    band_lower / band_upper:
        The ARIMA band, if a band detector is deployed.
    max_weekly_mean:
        The Integrated detector's mean ceiling (None when not deployed).
    min_average_tau:
        The minimum-average detector's threshold (None when absent).
    has_neighbours:
        Whether the attacker has siblings whose meters she can reach
        (required for every 'B' class, Proposition 2).
    """

    balance_check: bool = True
    band_lower: np.ndarray | None = None
    band_upper: np.ndarray | None = None
    max_weekly_mean: float | None = None
    min_average_tau: float | None = None
    has_neighbours: bool = True


@dataclass(frozen=True)
class AttackPlan:
    """One ranked option in the adversary's menu."""

    attack_class: AttackClass
    expected_weekly_gain_usd: float
    rationale: str


def _mean_price(pricing: PricingScheme) -> float:
    return float(pricing.price_vector(SLOTS_PER_WEEK).mean())


def plan_attack(
    actual_week: np.ndarray,
    pricing: PricingScheme,
    posture: DefensePosture,
    dt_hours: float = DEFAULT_DT_HOURS,
) -> list[AttackPlan]:
    """Rank the attack classes by their analytic worst-case weekly gain.

    Only classes *feasible* under the pricing scheme and posture are
    returned (Table I feasibility plus Proposition-2 neighbour access).
    """
    week = np.asarray(actual_week, dtype=float).ravel()
    if week.size != SLOTS_PER_WEEK:
        raise ConfigurationError(
            f"actual_week must have {SLOTS_PER_WEEK} readings, got {week.size}"
        )
    plans: list[AttackPlan] = []
    price = _mean_price(pricing)
    needs_b = posture.balance_check
    can_do_b = posture.has_neighbours

    # --- Over-consumption (1A / 1B) -----------------------------------
    if not needs_b or can_do_b:
        cls = AttackClass.CLASS_1B if needs_b else AttackClass.CLASS_1A
        if posture.band_upper is not None:
            stolen = max_over_report_under_band(
                week, posture.band_upper, dt_hours
            )
            rationale = "capped by the victim's confidence band"
            if posture.max_weekly_mean is not None:
                moment_cap = max_over_report_under_moment_checks(
                    week, posture.max_weekly_mean, dt_hours
                )
                if moment_cap < stolen:
                    stolen = moment_cap
                    rationale = "capped by the Integrated mean check"
        else:
            stolen = float("inf")
            rationale = (
                "unbounded: limited only by conductor capacity "
                "(Section VI-A1)"
            )
        plans.append(
            AttackPlan(
                attack_class=cls,
                expected_weekly_gain_usd=(
                    stolen * price if np.isfinite(stolen) else float("inf")
                ),
                rationale=rationale,
            )
        )

    # --- Under-reporting (2A / 2B) -------------------------------------
    if not needs_b or can_do_b:
        cls = AttackClass.CLASS_2B if needs_b else AttackClass.CLASS_2A
        caps = []
        if posture.band_lower is not None:
            caps.append(
                (
                    max_theft_under_band(week, posture.band_lower, dt_hours),
                    "capped by the band's lower bound",
                )
            )
        if posture.min_average_tau is not None:
            caps.append(
                (
                    max_theft_under_min_average(
                        week, posture.min_average_tau, dt_hours
                    ),
                    "capped by the minimum-average threshold tau",
                )
            )
        if not caps:
            caps.append(
                (
                    float(week.sum()) * dt_hours,
                    "uncapped: the whole consumption can be hidden",
                )
            )
        stolen, rationale = min(caps, key=lambda c: c[0])
        plans.append(
            AttackPlan(
                attack_class=cls,
                expected_weekly_gain_usd=stolen * price,
                rationale=rationale,
            )
        )

    # --- Load shifting (3A / 3B), variable pricing only ----------------
    if pricing.is_variable and isinstance(pricing, TimeOfUsePricing):
        if not needs_b or can_do_b:
            cls = AttackClass.CLASS_3B if needs_b else AttackClass.CLASS_3A
            mask = pricing.peak_mask(SLOTS_PER_WEEK)
            profit = max_swap_profit(
                week, mask, pricing.peak_rate, pricing.offpeak_rate, dt_hours
            )
            plans.append(
                AttackPlan(
                    attack_class=cls,
                    expected_weekly_gain_usd=profit,
                    rationale="bounded by the ideal peak->off-peak reordering",
                )
            )

    plans.sort(key=lambda p: -p.expected_weekly_gain_usd)
    return plans
