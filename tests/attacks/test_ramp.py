"""Tests for the boiling-frog ramp attack."""

import numpy as np
import pytest

from repro.attacks.classes import AttackClass
from repro.attacks.injection.ramp import BoilingFrogRampAttack
from repro.errors import InjectionError


class TestSchedule:
    def test_factors_decay_monotonically_to_the_floor(self):
        attack = BoilingFrogRampAttack(weekly_decay=0.9, floor=0.5)
        factors = np.array([attack.factor_for_week(k) for k in range(20)])
        assert factors[0] == 1.0
        assert np.all(np.diff(factors) <= 0)
        assert factors.min() == pytest.approx(0.5)
        assert factors[-1] == pytest.approx(0.5)

    def test_weeks_to_floor_matches_the_schedule(self):
        attack = BoilingFrogRampAttack(weekly_decay=0.9, floor=0.5)
        k = int(np.ceil(np.log(attack.floor) / np.log(attack.weekly_decay)))
        assert attack.factor_for_week(k) == pytest.approx(attack.floor)
        assert attack.factor_for_week(k - 1) > attack.floor

    def test_factor_before_start_is_honest(self):
        attack = BoilingFrogRampAttack()
        assert attack.factor_for_week(-3) == 1.0

    def test_each_step_is_individually_unremarkable(self):
        # The whole point of the ramp: consecutive weeks differ by at
        # most the decay factor, far inside benign weekly variation.
        attack = BoilingFrogRampAttack(weekly_decay=0.95, floor=0.4)
        factors = np.array([attack.factor_for_week(k) for k in range(30)])
        ratios = factors[1:] / factors[:-1]
        assert ratios.min() >= 0.95 - 1e-12


class TestPoisonSeries:
    def test_prefix_untouched_and_weeks_scaled(self):
        attack = BoilingFrogRampAttack(weekly_decay=0.9, floor=0.5)
        series = np.ones(5 * 4, dtype=float)
        poisoned = attack.poison_series(series, start_slot=8, slots_per_week=4)
        assert np.array_equal(poisoned[:8], np.ones(8))
        # Week counter starts at the week containing start_slot.
        assert np.allclose(poisoned[8:12], 1.0)  # k=0
        assert np.allclose(poisoned[12:16], 0.9)  # k=1
        assert np.allclose(poisoned[16:20], 0.81)  # k=2

    def test_mid_week_start_scales_the_containing_week(self):
        attack = BoilingFrogRampAttack(weekly_decay=0.9, floor=0.5)
        series = np.ones(12, dtype=float)
        poisoned = attack.poison_series(series, start_slot=6, slots_per_week=4)
        assert np.array_equal(poisoned[:6], np.ones(6))
        assert np.allclose(poisoned[6:8], 1.0)  # tail of week k=0
        assert np.allclose(poisoned[8:12], 0.9)

    def test_input_is_not_mutated(self):
        attack = BoilingFrogRampAttack()
        series = np.ones(672, dtype=float)
        attack.poison_series(series, start_slot=0)
        assert np.array_equal(series, np.ones(672))

    def test_bad_arguments_raise(self):
        attack = BoilingFrogRampAttack()
        with pytest.raises(InjectionError):
            attack.poison_series(np.ones(4), start_slot=-1)
        with pytest.raises(InjectionError):
            attack.poison_series(np.ones(4), start_slot=0, slots_per_week=0)


class TestConstruction:
    @pytest.mark.parametrize("kwargs", [
        {"weekly_decay": 0.0},
        {"weekly_decay": 1.0},
        {"floor": 0.0},
        {"floor": 1.0},
    ])
    def test_bad_parameters_raise(self, kwargs):
        with pytest.raises(InjectionError):
            BoilingFrogRampAttack(**kwargs)

    def test_taxonomy_contract(self, injection_context, rng):
        attack = BoilingFrogRampAttack(weekly_decay=0.95, floor=0.6)
        assert attack.attack_class is AttackClass.CLASS_2A
        vector = attack.inject(injection_context, rng)
        assert np.allclose(
            vector.reported, injection_context.actual_week * 0.6
        )
        assert vector.attack_class is AttackClass.CLASS_2A
