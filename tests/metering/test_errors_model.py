"""Unit tests for the EEI-calibrated measurement error model."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.metering.errors_model import MeasurementErrorModel


class TestCalibration:
    def test_tight_band_probability(self):
        """99.91% of readings within +/-0.5% (the EEI study figure)."""
        model = MeasurementErrorModel()
        assert model.within_band_probability(0.005) == pytest.approx(
            0.9991, abs=1e-4
        )

    def test_wide_band_probability_exceeds_eei(self):
        """The +/-2% band must hold with at least the 99.96% of the study."""
        model = MeasurementErrorModel()
        assert model.within_band_probability(0.02) > 0.9996

    def test_empirical_matches_analytical(self, rng):
        model = MeasurementErrorModel()
        true_value = 10.0
        readings = np.array(
            [model.apply(true_value, rng) for _ in range(200_000)]
        )
        rel_err = np.abs(readings - true_value) / true_value
        assert np.mean(rel_err < 0.005) == pytest.approx(0.9991, abs=0.001)


class TestApply:
    def test_exact_model_is_identity(self, rng):
        model = MeasurementErrorModel.exact()
        assert model.apply(7.5, rng) == 7.5
        assert model.within_band_probability(0.001) == 1.0

    def test_never_negative(self, rng):
        model = MeasurementErrorModel(sigma=2.0)  # absurdly noisy
        readings = np.array([model.apply(0.01, rng) for _ in range(1000)])
        assert np.all(readings >= 0.0)

    def test_zero_demand_stays_zero_exact(self, rng):
        assert MeasurementErrorModel.exact().apply(0.0, rng) == 0.0

    def test_rejects_negative_demand(self, rng):
        model = MeasurementErrorModel()
        with pytest.raises(ConfigurationError):
            model.apply(-1.0, rng)

    def test_rejects_negative_sigma(self):
        with pytest.raises(ConfigurationError):
            MeasurementErrorModel(sigma=-0.1)

    def test_rejects_bad_band(self):
        with pytest.raises(ConfigurationError):
            MeasurementErrorModel().within_band_probability(0.0)
