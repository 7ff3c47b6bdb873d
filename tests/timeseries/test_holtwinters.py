"""Tests for the Holt-Winters forecaster."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, ModelError, NotFittedError
from repro.timeseries.holtwinters import HoltWinters, HoltWintersParams


def _seasonal_series(n_periods, period, rng, trend=0.0, noise=0.1):
    season = 2.0 + np.sin(np.linspace(0, 2 * np.pi, period, endpoint=False))
    values = []
    for k in range(n_periods):
        values.append(
            season + trend * k * period / period + rng.normal(0, noise, period)
        )
    series = np.concatenate(values)
    if trend:
        series = series + trend * np.arange(series.size)
    return series


class TestFit:
    def test_requires_two_seasons(self, rng):
        with pytest.raises(ModelError):
            HoltWinters(period=48).fit(rng.normal(size=60))

    def test_rejects_nan(self, rng):
        series = _seasonal_series(4, 48, rng)
        series[10] = np.nan
        with pytest.raises(ModelError):
            HoltWinters(period=48).fit(series)

    def test_unfitted_raises(self):
        with pytest.raises(NotFittedError):
            HoltWinters(period=48).forecast(10)

    def test_rejects_bad_params(self):
        with pytest.raises(ConfigurationError):
            HoltWintersParams(alpha=1.5)
        with pytest.raises(ConfigurationError):
            HoltWinters(period=1)
        with pytest.raises(ConfigurationError):
            HoltWinters(period=48, damp_trend=0.0)


class TestForecast:
    def test_tracks_seasonal_shape(self, rng):
        period = 48
        series = _seasonal_series(10, period, rng, noise=0.05)
        model = HoltWinters(period=period).fit(series)
        forecast = model.forecast(period)
        truth = 2.0 + np.sin(
            np.linspace(0, 2 * np.pi, period, endpoint=False)
        )
        assert np.corrcoef(forecast.mean, truth)[0, 1] > 0.95

    def test_coverage_on_held_out_period(self, rng):
        period = 48
        series = _seasonal_series(12, period, rng, noise=0.1)
        train, test = series[: 10 * period], series[10 * period : 11 * period]
        model = HoltWinters(period=period).fit(train)
        forecast = model.forecast(period)
        inside = (test >= forecast.lower) & (test <= forecast.upper)
        assert inside.mean() > 0.85

    def test_band_tighter_than_arima(self, paper_dataset):
        """The seasonal model explains most variance, so its band is
        much narrower than the low-order ARIMA's."""
        from repro.timeseries.arima import ARIMA
        from repro.timeseries.seasonal import SLOTS_PER_WEEK

        cid = paper_dataset.consumers()[0]
        train = paper_dataset.train_series(cid)
        hw = HoltWinters(period=SLOTS_PER_WEEK).fit(train)
        arima = ARIMA(order=(2, 0, 1), refine=False).fit(
            train[-4 * SLOTS_PER_WEEK :]
        )
        hw_width = hw.forecast(SLOTS_PER_WEEK).std.mean()
        arima_width = arima.forecast(SLOTS_PER_WEEK).std.mean()
        assert hw_width < arima_width

    def test_damped_trend_bounded(self, rng):
        period = 48
        series = _seasonal_series(6, period, rng, trend=0.01)
        model = HoltWinters(period=period, damp_trend=0.9).fit(series)
        forecast = model.forecast(10 * period)
        assert np.all(np.isfinite(forecast.mean))

    def test_rejects_bad_horizon(self, rng):
        model = HoltWinters(period=48).fit(_seasonal_series(4, 48, rng))
        with pytest.raises(ConfigurationError):
            model.forecast(0)

    def test_sigma_positive(self, rng):
        model = HoltWinters(period=48).fit(_seasonal_series(4, 48, rng))
        assert model.sigma > 0
