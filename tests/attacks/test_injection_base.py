"""Unit tests for the injection framework value objects."""

import numpy as np
import pytest

from repro.attacks.classes import AttackClass
from repro.attacks.injection.base import AttackVector, InjectionContext
from repro.errors import InjectionError
from repro.pricing.schemes import FlatRatePricing, TimeOfUsePricing
from repro.timeseries.seasonal import SLOTS_PER_WEEK


class TestInjectionContext:
    def test_valid_context(self, injection_context):
        assert injection_context.train_matrix.shape[1] == SLOTS_PER_WEEK
        assert injection_context.actual_week.size == SLOTS_PER_WEEK

    def test_weekly_moments(self, injection_context):
        means = injection_context.weekly_means
        assert means.size == injection_context.train_matrix.shape[0]
        assert np.all(injection_context.weekly_variances >= 0)

    def test_weekly_moments_computed_once_and_read_only(self, injection_context):
        means = injection_context.weekly_means
        variances = injection_context.weekly_variances
        assert injection_context.weekly_means is means
        assert injection_context.weekly_variances is variances
        assert np.array_equal(
            means, injection_context.train_matrix.mean(axis=1)
        )
        assert np.array_equal(
            variances, injection_context.train_matrix.var(axis=1)
        )
        with pytest.raises(ValueError):
            means[0] = -1.0
        with pytest.raises(ValueError):
            variances[0] = -1.0

    def test_rejects_wrong_week_length(self, rng):
        with pytest.raises(InjectionError):
            InjectionContext(
                train_matrix=rng.uniform(size=(3, SLOTS_PER_WEEK)),
                actual_week=rng.uniform(size=10),
                band_lower=np.zeros(SLOTS_PER_WEEK),
                band_upper=np.ones(SLOTS_PER_WEEK),
            )

    def test_rejects_inverted_band(self, rng):
        with pytest.raises(InjectionError):
            InjectionContext(
                train_matrix=rng.uniform(size=(3, SLOTS_PER_WEEK)),
                actual_week=rng.uniform(size=SLOTS_PER_WEEK),
                band_lower=np.ones(SLOTS_PER_WEEK),
                band_upper=np.zeros(SLOTS_PER_WEEK),
            )


class TestAttackVector:
    def _vector(self, attack_class, reported, actual):
        return AttackVector(
            attack_class=attack_class, reported=reported, actual=actual
        )

    def test_stolen_kwh_1b_over_report(self):
        actual = np.full(SLOTS_PER_WEEK, 1.0)
        reported = np.full(SLOTS_PER_WEEK, 1.5)
        vector = self._vector(AttackClass.CLASS_1B, reported, actual)
        # 0.5 kW over-reported for 336 half-hours = 84 kWh.
        assert vector.stolen_kwh() == pytest.approx(84.0)

    def test_stolen_kwh_2a_under_report(self):
        actual = np.full(SLOTS_PER_WEEK, 2.0)
        reported = np.full(SLOTS_PER_WEEK, 1.0)
        vector = self._vector(AttackClass.CLASS_2A, reported, actual)
        assert vector.stolen_kwh() == pytest.approx(168.0)

    def test_stolen_kwh_3a_zero(self):
        actual = np.full(SLOTS_PER_WEEK, 2.0)
        reported = actual[::-1].copy()
        vector = self._vector(AttackClass.CLASS_3A, reported, actual)
        assert vector.stolen_kwh() == 0.0

    def test_profit_1b_equals_neighbour_loss(self):
        actual = np.full(SLOTS_PER_WEEK, 1.0)
        reported = np.full(SLOTS_PER_WEEK, 2.0)
        vector = self._vector(AttackClass.CLASS_1B, reported, actual)
        assert vector.profit(FlatRatePricing(0.2)) == pytest.approx(
            0.5 * 0.2 * SLOTS_PER_WEEK
        )

    def test_profit_2a_positive_when_under_reporting(self):
        actual = np.full(SLOTS_PER_WEEK, 2.0)
        reported = np.full(SLOTS_PER_WEEK, 0.5)
        vector = self._vector(AttackClass.CLASS_2A, reported, actual)
        assert vector.profit(FlatRatePricing(0.2)) > 0

    def test_profit_3a_from_swap(self):
        tariff = TimeOfUsePricing()
        actual = np.zeros(SLOTS_PER_WEEK)
        reported = np.zeros(SLOTS_PER_WEEK)
        actual[20] = 4.0  # peak slot
        reported[2] = 4.0  # moved to off-peak
        vector = self._vector(AttackClass.CLASS_3A, reported, actual)
        assert vector.profit(tariff) == pytest.approx(0.5 * 4.0 * 0.03)

    def test_rejects_negative_readings(self):
        with pytest.raises(InjectionError):
            AttackVector(
                attack_class=AttackClass.CLASS_2A,
                reported=np.full(SLOTS_PER_WEEK, -1.0),
                actual=np.ones(SLOTS_PER_WEEK),
            )

    def test_rejects_wrong_length(self):
        with pytest.raises(InjectionError):
            AttackVector(
                attack_class=AttackClass.CLASS_2A,
                reported=np.ones(5),
                actual=np.ones(5),
            )
