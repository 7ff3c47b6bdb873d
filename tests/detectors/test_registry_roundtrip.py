"""Round-trip contract for every weekly detector.

Each :class:`~repro.detectors.base.WeeklyDetector` must: train on a
realistic matrix, score a week, survive a checkpoint-style pickle
round-trip bit-identically (proven by :meth:`WeeklyDetector.fingerprint`),
and produce NaN-free output on a week containing gaps — via degraded
scoring when the detector supports partial weeks, via boundary
interpolation otherwise.
"""

import math
import pickle

import numpy as np
import pytest

from repro.core.conditional import PriceConditionedKLDDetector
from repro.core.kld import KLDDetector
from repro.data.preprocessing import interpolate_gaps
from repro.detectors.arima_detector import ARIMADetector
from repro.detectors.holtwinters_detector import HoltWintersDetector
from repro.detectors.integrated_arima import IntegratedARIMADetector
from repro.detectors.pca import PCADetector
from repro.detectors.threshold import MinimumAverageDetector
from repro.pricing.schemes import TimeOfUsePricing

DETECTORS = {
    "arima": ARIMADetector,
    "conditional_kld": lambda: PriceConditionedKLDDetector(
        pricing=TimeOfUsePricing()
    ),
    "holt_winters": HoltWintersDetector,
    "integrated_arima": IntegratedARIMADetector,
    "kld": KLDDetector,
    "min_average": MinimumAverageDetector,
    "pca": PCADetector,
}


@pytest.fixture(scope="module")
def train(paper_dataset):
    return paper_dataset.train_matrix(paper_dataset.consumers()[0])


@pytest.fixture(scope="module")
def probe_week(paper_dataset):
    return paper_dataset.test_matrix(paper_dataset.consumers()[0])[0]


@pytest.fixture(scope="module")
def gappy_week(probe_week):
    week = probe_week.copy()
    week[40:56] = np.nan  # an 8-hour head-end outage
    week[200] = np.nan
    return week


def _fit(name, train):
    return DETECTORS[name]().fit(train)


@pytest.mark.parametrize("name", sorted(DETECTORS))
class TestRegistryRoundTrip:
    def test_trains_and_scores_finite(self, name, train, probe_week):
        detector = _fit(name, train)
        result = detector.score_week(probe_week)
        assert math.isfinite(result.score)
        assert math.isfinite(result.threshold)
        assert isinstance(result.flagged, bool)

    def test_pickle_round_trip_is_bit_identical(self, name, train, probe_week):
        detector = _fit(name, train)
        clone = pickle.loads(
            pickle.dumps(detector, protocol=pickle.HIGHEST_PROTOCOL)
        )
        assert clone.fingerprint() == detector.fingerprint()
        original = detector.score_week(probe_week)
        restored = clone.score_week(probe_week)
        assert restored.score == original.score
        assert restored.threshold == original.threshold
        assert restored.flagged == original.flagged

    def test_gappy_week_yields_nan_free_output(self, name, train, gappy_week):
        detector = _fit(name, train)
        if detector.supports_partial_weeks:
            result = detector.score_partial_week(gappy_week)
        else:
            repaired = interpolate_gaps(gappy_week, max_gap=16)
            assert np.isfinite(repaired).all()
            result = detector.score_week(repaired)
        assert math.isfinite(result.score)
        assert math.isfinite(result.threshold)

    def test_fingerprint_distinguishes_different_fits(self, name, train):
        a = _fit(name, train)
        b = DETECTORS[name]().fit(train * 1.7)
        assert a.fingerprint() != b.fingerprint()
