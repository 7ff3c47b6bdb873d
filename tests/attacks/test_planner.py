"""Tests for the adversarial attack planner."""

import numpy as np
import pytest

from repro.attacks.classes import AttackClass
from repro.attacks.planner import DefensePosture, plan_attack
from repro.errors import ConfigurationError
from repro.pricing.schemes import FlatRatePricing, TimeOfUsePricing
from repro.timeseries.seasonal import SLOTS_PER_WEEK


@pytest.fixture
def week(rng):
    return rng.uniform(0.5, 2.0, size=SLOTS_PER_WEEK)


@pytest.fixture
def band(week):
    return np.maximum(week - 1.0, 0.0), week + 2.0


class TestFeasibility:
    def test_balance_check_forces_b_classes(self, week, band):
        lower, upper = band
        posture = DefensePosture(
            balance_check=True, band_lower=lower, band_upper=upper
        )
        plans = plan_attack(week, TimeOfUsePricing(), posture)
        assert all(p.attack_class.circumvents_balance_check for p in plans)

    def test_no_balance_check_allows_a_classes(self, week, band):
        lower, upper = band
        posture = DefensePosture(
            balance_check=False, band_lower=lower, band_upper=upper
        )
        plans = plan_attack(week, TimeOfUsePricing(), posture)
        assert all(
            not p.attack_class.circumvents_balance_check for p in plans
        )

    def test_no_neighbours_blocks_b_classes(self, week, band):
        lower, upper = band
        posture = DefensePosture(
            balance_check=True,
            has_neighbours=False,
            band_lower=lower,
            band_upper=upper,
        )
        plans = plan_attack(week, TimeOfUsePricing(), posture)
        assert plans == []

    def test_flat_rate_excludes_load_shifting(self, week, band):
        lower, upper = band
        posture = DefensePosture(band_lower=lower, band_upper=upper)
        plans = plan_attack(week, FlatRatePricing(0.2), posture)
        classes = {p.attack_class for p in plans}
        assert AttackClass.CLASS_3B not in classes
        assert AttackClass.CLASS_3A not in classes


class TestRanking:
    def test_unbounded_1b_dominates_without_band(self, week):
        """No band detector: 1B is limited only by conductor capacity —
        the paper's 'most severe' class."""
        posture = DefensePosture(balance_check=True)
        plan = plan_attack(week, TimeOfUsePricing(), posture)[0]
        assert plan.attack_class is AttackClass.CLASS_1B
        assert plan.expected_weekly_gain_usd == float("inf")

    def test_1b_beats_swap_under_band(self, week, band):
        lower, upper = band
        posture = DefensePosture(band_lower=lower, band_upper=upper)
        plans = plan_attack(week, TimeOfUsePricing(), posture)
        gains = {p.attack_class: p.expected_weekly_gain_usd for p in plans}
        assert gains[AttackClass.CLASS_1B] > gains[AttackClass.CLASS_3B]

    def test_moment_check_tightens_1b(self, week, band):
        lower, upper = band
        loose = DefensePosture(band_lower=lower, band_upper=upper)
        tight = DefensePosture(
            band_lower=lower,
            band_upper=upper,
            max_weekly_mean=float(week.mean()) * 1.05,
        )
        loose_gain = plan_attack(week, TimeOfUsePricing(), loose)[0]
        tight_plans = plan_attack(week, TimeOfUsePricing(), tight)
        tight_1b = next(
            p
            for p in tight_plans
            if p.attack_class is AttackClass.CLASS_1B
        )
        assert tight_1b.expected_weekly_gain_usd < (
            loose_gain.expected_weekly_gain_usd
        )

    def test_tau_caps_2b(self, week):
        posture = DefensePosture(
            min_average_tau=float(week.mean()) * 0.8,
        )
        plans = plan_attack(week, TimeOfUsePricing(), posture)
        plan_2b = next(
            p for p in plans if p.attack_class is AttackClass.CLASS_2B
        )
        # Cap: only the demand above tau can be hidden.
        assert plan_2b.expected_weekly_gain_usd < float(
            week.sum() * 0.5 * 0.21
        )
        assert "tau" in plan_2b.rationale

    def test_ranking_descends(self, week, band):
        lower, upper = band
        posture = DefensePosture(band_lower=lower, band_upper=upper)
        plans = plan_attack(week, TimeOfUsePricing(), posture)
        gains = [p.expected_weekly_gain_usd for p in plans]
        assert gains == sorted(gains, reverse=True)

    def test_rejects_wrong_week_length(self):
        with pytest.raises(ConfigurationError):
            plan_attack(
                np.ones(10), TimeOfUsePricing(), DefensePosture()
            )
