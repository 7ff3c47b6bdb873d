"""Unit tests for the Forecast value object."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.timeseries.forecast import Forecast


class TestForecast:
    def test_bounds_symmetric(self):
        forecast = Forecast(mean=np.array([1.0, 2.0]), std=np.array([0.5, 1.0]))
        assert np.allclose(
            forecast.upper - forecast.mean, forecast.mean - forecast.lower
        )

    def test_default_z_95(self):
        forecast = Forecast(mean=np.zeros(1), std=np.ones(1))
        assert forecast.upper[0] == pytest.approx(1.96, abs=0.01)

    def test_custom_interval(self):
        forecast = Forecast(mean=np.zeros(2), std=np.ones(2), z=3.0)
        assert np.allclose(forecast.upper, 3.0)
        assert np.allclose(forecast.lower, -3.0)

    def test_contains(self):
        forecast = Forecast(mean=np.array([0.0, 0.0]), std=np.array([1.0, 1.0]))
        values = np.array([0.5, 5.0])
        mask = (values >= forecast.lower) & (values <= forecast.upper)
        assert mask.tolist() == [True, False]

    def test_contains_respects_custom_z(self):
        default = Forecast(mean=np.array([0.0]), std=np.array([1.0]))
        wide = Forecast(mean=np.array([0.0]), std=np.array([1.0]), z=3.0)
        assert not 2.5 <= default.upper[0]
        assert 2.5 <= wide.upper[0]

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(ConfigurationError):
            Forecast(mean=np.zeros(3), std=np.zeros(2))

    def test_rejects_negative_std(self):
        with pytest.raises(ConfigurationError):
            Forecast(mean=np.zeros(1), std=np.array([-1.0]))

    def test_rejects_bad_z(self):
        with pytest.raises(ConfigurationError):
            Forecast(mean=np.zeros(1), std=np.ones(1), z=0.0)

    def test_horizon(self):
        assert Forecast(mean=np.zeros(7), std=np.ones(7)).horizon == 7
