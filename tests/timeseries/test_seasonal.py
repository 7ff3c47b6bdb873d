"""Unit tests for the seasonal profile model."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, ModelError
from repro.timeseries.seasonal import SLOTS_PER_WEEK, SeasonalProfile


def _weekly_series(n_weeks, rng, noise=0.1):
    template = 1.0 + np.sin(np.linspace(0, 4 * np.pi, SLOTS_PER_WEEK))
    weeks = [
        template + rng.normal(0, noise, SLOTS_PER_WEEK) for _ in range(n_weeks)
    ]
    return np.concatenate(weeks), template


class TestFit:
    def test_recovers_template(self, rng):
        series, template = _weekly_series(40, rng)
        profile = SeasonalProfile.fit(series)
        assert np.allclose(profile.mean, template, atol=0.1)

    def test_std_estimates_noise(self, rng):
        series, _ = _weekly_series(60, rng, noise=0.2)
        profile = SeasonalProfile.fit(series)
        assert profile.std.mean() == pytest.approx(0.2, rel=0.15)

    def test_ignores_trailing_partial_week(self, rng):
        series, _ = _weekly_series(5, rng)
        padded = np.concatenate([series, np.zeros(10)])
        profile_a = SeasonalProfile.fit(series)
        profile_b = SeasonalProfile.fit(padded)
        assert np.allclose(profile_a.mean, profile_b.mean)

    def test_rejects_single_period(self, rng):
        with pytest.raises(ModelError):
            SeasonalProfile.fit(rng.normal(size=SLOTS_PER_WEEK))

    def test_from_matrix(self, rng):
        matrix = rng.normal(1.0, 0.1, size=(10, SLOTS_PER_WEEK))
        profile = SeasonalProfile.fit(matrix.ravel())
        assert np.allclose(profile.mean, matrix.mean(axis=0))

    def test_from_matrix_rejects_single_row(self, rng):
        with pytest.raises(ModelError):
            SeasonalProfile.fit(rng.normal(size=(1, SLOTS_PER_WEEK)).ravel())


class TestPredictAndZScores:
    def test_predict_wraps_around(self, rng):
        series, _ = _weekly_series(10, rng)
        profile = SeasonalProfile.fit(series)
        prediction = profile.predict(horizon=2 * SLOTS_PER_WEEK)
        assert np.allclose(
            prediction[:SLOTS_PER_WEEK], prediction[SLOTS_PER_WEEK:]
        )

    def test_predict_start_slot_offset(self, rng):
        series, _ = _weekly_series(10, rng)
        profile = SeasonalProfile.fit(series)
        shifted = profile.predict(horizon=10, start_slot=5)
        assert np.allclose(shifted, profile.mean[5:15])

    def test_zscores_zero_for_mean_week(self, rng):
        series, _ = _weekly_series(30, rng)
        profile = SeasonalProfile.fit(series)
        z = profile.zscores(profile.mean)
        assert np.allclose(z, 0.0)

    def test_zscores_flag_spike(self, rng):
        series, template = _weekly_series(30, rng)
        profile = SeasonalProfile.fit(series)
        week = template.copy()
        week[100] += 5.0
        z = profile.zscores(week)
        assert z[100] > 10.0

    def test_zscores_rejects_wrong_length(self, rng):
        series, _ = _weekly_series(10, rng)
        profile = SeasonalProfile.fit(series)
        with pytest.raises(ConfigurationError):
            profile.zscores(np.zeros(10))

    def test_predict_rejects_bad_horizon(self, rng):
        series, _ = _weekly_series(10, rng)
        profile = SeasonalProfile.fit(series)
        with pytest.raises(ConfigurationError):
            profile.predict(0)
