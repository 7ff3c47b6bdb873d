"""Tests for the Ljung-Box residual diagnostic."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, ModelError
from repro.timeseries.arima import ARIMA
from repro.timeseries.diagnostics import ljung_box


class TestLjungBox:
    def test_white_noise_not_rejected(self, rng):
        result = ljung_box(rng.normal(size=2000), lags=20)
        assert result.p_value > 0.01

    def test_autocorrelated_series_rejected(self, rng):
        noise = rng.normal(size=2000)
        series = np.zeros(2000)
        for t in range(1, 2000):
            series[t] = 0.7 * series[t - 1] + noise[t]
        result = ljung_box(series, lags=10)
        assert result.p_value < 0.001

    def test_good_arima_fit_leaves_whiter_residuals(self, rng):
        noise = rng.normal(size=3000)
        series = np.zeros(3000)
        for t in range(1, 3000):
            series[t] = 0.6 * series[t - 1] + noise[t]
        model = ARIMA(order=(1, 0, 0), refine=False).fit(series)
        raw = ljung_box(series, lags=10)
        fitted = ljung_box(model.residuals()[5:], lags=10, n_fitted_params=1)
        assert fitted.statistic < raw.statistic

    def test_dof_accounts_for_parameters(self, rng):
        residuals = rng.normal(size=500)
        plain = ljung_box(residuals, lags=10, n_fitted_params=0)
        adjusted = ljung_box(residuals, lags=10, n_fitted_params=3)
        assert plain.dof == 10
        assert adjusted.dof == 7
        assert adjusted.statistic == pytest.approx(plain.statistic)

    def test_rejects_bad_arguments(self, rng):
        with pytest.raises(ConfigurationError):
            ljung_box(rng.normal(size=100), lags=0)
        with pytest.raises(ConfigurationError):
            ljung_box(rng.normal(size=100), lags=5, n_fitted_params=-1)
        with pytest.raises(ModelError):
            ljung_box(rng.normal(size=5), lags=10)
