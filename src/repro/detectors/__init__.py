"""Baseline electricity-theft detectors evaluated in the paper.

These are the related-work detectors the KLD detector (:mod:`repro.core`)
is compared against in Section VIII: the ARIMA detector and the Integrated
ARIMA detector of Badrinath Krishna et al. (CRITIS 2015), and the
minimum-average threshold detector of Mashima & Cardenas (RAID 2012).
"""

from repro.detectors.base import DetectionResult, WeeklyDetector
from repro.detectors.arima_detector import ARIMADetector
from repro.detectors.holtwinters_detector import HoltWintersDetector
from repro.detectors.integrated_arima import IntegratedARIMADetector
from repro.detectors.pca import PCADetector
from repro.detectors.threshold import MinimumAverageDetector

__all__ = [
    "ARIMADetector",
    "DetectionResult",
    "HoltWintersDetector",
    "IntegratedARIMADetector",
    "MinimumAverageDetector",
    "PCADetector",
    "WeeklyDetector",
]
