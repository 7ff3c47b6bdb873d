"""Unit tests for the ARIMA model."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, ModelError, NotFittedError
from repro.timeseries.arima import ARIMA, _psi_weights


def _simulate_arma(phi, theta, n, rng, intercept=0.0):
    p, q = len(phi), len(theta)
    noise = rng.normal(size=n + 100)
    series = np.zeros(n + 100)
    for t in range(max(p, q), n + 100):
        series[t] = intercept + noise[t]
        for i, c in enumerate(phi):
            series[t] += c * series[t - 1 - i]
        for j, c in enumerate(theta):
            series[t] += c * noise[t - 1 - j]
    return series[100:]


class TestConstruction:
    def test_rejects_negative_orders(self):
        with pytest.raises(ConfigurationError):
            ARIMA(order=(-1, 0, 0))

    def test_rejects_empty_model(self):
        with pytest.raises(ConfigurationError):
            ARIMA(order=(0, 0, 0))

    def test_params_before_fit_raises(self):
        with pytest.raises(NotFittedError):
            ARIMA(order=(1, 0, 0)).params

    def test_rejects_short_series(self, rng):
        with pytest.raises(ModelError):
            ARIMA(order=(2, 0, 1)).fit(rng.normal(size=10))

    def test_rejects_nan_series(self, rng):
        series = rng.normal(size=100)
        series[10] = np.nan
        with pytest.raises(ModelError):
            ARIMA(order=(1, 0, 0)).fit(series)


class TestFitting:
    def test_recovers_ar1(self, rng):
        series = _simulate_arma([0.6], [], 10_000, rng)
        fit = ARIMA(order=(1, 0, 0), refine=False).fit(series).params
        assert fit.phi[0] == pytest.approx(0.6, abs=0.05)
        assert fit.sigma2 == pytest.approx(1.0, rel=0.1)

    def test_recovers_ma1(self, rng):
        series = _simulate_arma([], [0.5], 10_000, rng)
        fit = ARIMA(order=(0, 0, 1), refine=False).fit(series).params
        assert fit.theta[0] == pytest.approx(0.5, abs=0.07)

    def test_recovers_arma11(self, rng):
        series = _simulate_arma([0.5], [0.3], 20_000, rng)
        fit = ARIMA(order=(1, 0, 1), refine=False).fit(series).params
        assert fit.phi[0] == pytest.approx(0.5, abs=0.1)
        assert fit.theta[0] == pytest.approx(0.3, abs=0.1)

    def test_css_refinement_does_not_worsen(self, rng):
        series = _simulate_arma([0.5], [0.3], 2000, rng)
        plain = ARIMA(order=(1, 0, 1), refine=False).fit(series)
        refined = ARIMA(order=(1, 0, 1), refine=True).fit(series)
        rss_plain = float(plain.residuals() @ plain.residuals())
        rss_refined = float(refined.residuals() @ refined.residuals())
        assert rss_refined <= rss_plain + 1e-6

    def test_d1_handles_trend(self, rng):
        trend = np.arange(2000.0) * 0.05
        series = trend + _simulate_arma([0.4], [], 2000, rng)
        model = ARIMA(order=(1, 1, 0), refine=False).fit(series)
        forecast = model.forecast(10)
        # Forecasts should keep climbing with the trend.
        assert forecast.mean[-1] > series[-1]

    def test_intercept_captures_level(self, rng):
        series = _simulate_arma([0.3], [], 5000, rng, intercept=2.0)
        fit = ARIMA(order=(1, 0, 0), refine=False).fit(series).params
        implied_mean = fit.intercept / (1.0 - fit.phi[0])
        assert implied_mean == pytest.approx(series.mean(), rel=0.1)

    def test_fit_returns_self(self, rng):
        model = ARIMA(order=(1, 0, 0))
        assert model.fit(rng.normal(size=200)) is model


class TestForecast:
    def test_horizon_shape(self, rng):
        model = ARIMA(order=(1, 0, 0), refine=False).fit(rng.normal(size=500))
        forecast = model.forecast(24)
        assert forecast.horizon == 24
        assert forecast.lower.shape == (24,)

    def test_ar1_converges_to_mean(self, rng):
        series = _simulate_arma([0.5], [], 10_000, rng, intercept=1.0)
        model = ARIMA(order=(1, 0, 0), refine=False).fit(series)
        forecast = model.forecast(200)
        assert forecast.mean[-1] == pytest.approx(series.mean(), abs=0.2)

    def test_std_monotone_nondecreasing(self, rng):
        series = _simulate_arma([0.7], [0.2], 2000, rng)
        forecast = ARIMA(order=(1, 0, 1), refine=False).fit(series).forecast(50)
        assert np.all(np.diff(forecast.std) >= -1e-9)

    def test_interval_coverage_one_step(self, rng):
        # Roll the model over held-out data; ~95% of one-step actuals
        # should fall inside the 95% band at horizon 1.
        series = _simulate_arma([0.6], [], 3000, rng)
        hits = 0
        trials = 100
        for i in range(trials):
            cut = 2000 + i * 5
            model = ARIMA(order=(1, 0, 0), refine=False).fit(series[:cut])
            forecast = model.forecast(1)
            actual = series[cut]
            if forecast.lower[0] <= actual <= forecast.upper[0]:
                hits += 1
        assert hits >= 85

    def test_rejects_bad_horizon(self, rng):
        model = ARIMA(order=(1, 0, 0), refine=False).fit(rng.normal(size=200))
        with pytest.raises(ConfigurationError):
            model.forecast(0)


class TestInSampleForecast:
    """``sigma2`` is the mean squared one-step-ahead residual."""

    def test_d0_one_step_rmse_near_noise(self, rng):
        series = _simulate_arma([0.6], [], 2000, rng, intercept=1.0)
        model = ARIMA(order=(1, 0, 0), refine=False).fit(series)
        rmse = np.sqrt(model.params.sigma2)
        assert rmse == pytest.approx(1.0, rel=0.1)

    def test_fitted_beats_mean_predictor(self, rng):
        series = _simulate_arma([0.8], [], 1000, rng)
        model = ARIMA(order=(1, 0, 0), refine=False).fit(series)
        assert model.params.sigma2 < 0.6 * float(np.var(series))


class TestPsiWeights:
    def test_pure_ar_psi_geometric(self):
        psi = _psi_weights(np.array([0.5]), np.array([]), d=0, horizon=5)
        assert np.allclose(psi, [1.0, 0.5, 0.25, 0.125, 0.0625])

    def test_pure_ma_psi_truncates(self):
        psi = _psi_weights(np.array([]), np.array([0.4]), d=0, horizon=4)
        assert np.allclose(psi, [1.0, 0.4, 0.0, 0.0])

    def test_random_walk_psi_all_ones(self):
        psi = _psi_weights(np.array([]), np.array([]), d=1, horizon=4)
        assert np.allclose(psi, 1.0)

    def test_first_weight_always_one(self):
        psi = _psi_weights(np.array([0.3, 0.1]), np.array([0.2]), d=1, horizon=3)
        assert psi[0] == 1.0
