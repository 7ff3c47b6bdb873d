"""Ablation studies flagged by the paper as future extensions.

* :func:`bin_count_sweep` — Section VIII-D: "Fewer bins produce more
  false negatives and fewer false positives.  The impact of the number of
  bins on the results is a study to be included in extensions of this
  paper."
* :func:`divergence_sweep` — KL vs Jensen-Shannon as the week statistic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.attacks.injection import IntegratedARIMAAttack
from repro.core.kld import KLDDetector
from repro.data.dataset import SmartMeterDataset
from repro.errors import ConfigurationError
from repro.evaluation.config import EvaluationConfig
from repro.evaluation.experiment import _consumer_rng
from repro.evaluation.figures import _context_for
from repro.stats.divergence import js_divergence, kl_divergence
from repro.stats.histogram import FixedEdgeHistogram
from repro.stats.percentile import EmpiricalDistribution


@dataclass(frozen=True)
class AblationPoint:
    """Detection/false-positive rates at one parameter setting."""

    parameter: float
    detection_rate: float
    false_positive_rate: float


def _attack_and_normal_weeks(
    dataset: SmartMeterDataset,
    consumers: tuple[str, ...],
    config: EvaluationConfig,
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """(train_matrix, attack_week, normal_week) per consumer."""
    rows = []
    for cid in consumers:
        context, _ = _context_for(dataset, cid, config)
        rng = _consumer_rng(config, cid)
        attack = IntegratedARIMAAttack(direction="over").inject(context, rng)
        rows.append((context.train_matrix, attack.reported, context.actual_week))
    return rows


def bin_count_sweep(
    dataset: SmartMeterDataset,
    consumers: tuple[str, ...],
    bin_counts: tuple[int, ...] = (4, 6, 8, 10, 15, 20, 30, 40),
    significance: float = 0.05,
    config: EvaluationConfig | None = None,
) -> list[AblationPoint]:
    """KLD detection and false-positive rate as a function of bins B."""
    if not consumers:
        raise ConfigurationError("need at least one consumer")
    cfg = config if config is not None else EvaluationConfig()
    prepared = _attack_and_normal_weeks(dataset, consumers, cfg)
    points = []
    for bins in bin_counts:
        detected = 0
        false_positives = 0
        for train, attack_week, normal_week in prepared:
            detector = KLDDetector(bins=bins, significance=significance).fit(train)
            if detector.flags(attack_week):
                detected += 1
            if detector.flags(normal_week):
                false_positives += 1
        points.append(
            AblationPoint(
                parameter=float(bins),
                detection_rate=detected / len(prepared),
                false_positive_rate=false_positives / len(prepared),
            )
        )
    return points


def divergence_sweep(
    dataset: SmartMeterDataset,
    consumers: tuple[str, ...],
    significance: float = 0.05,
    bins: int = 10,
    config: EvaluationConfig | None = None,
) -> dict[str, AblationPoint]:
    """Compare KL divergence against Jensen-Shannon as the week statistic."""
    if not consumers:
        raise ConfigurationError("need at least one consumer")
    cfg = config if config is not None else EvaluationConfig()
    prepared = _attack_and_normal_weeks(dataset, consumers, cfg)
    results: dict[str, AblationPoint] = {}
    for name, divergence in (("kl", kl_divergence), ("js", js_divergence)):
        detected = 0
        false_positives = 0
        for train, attack_week, normal_week in prepared:
            histogram = FixedEdgeHistogram.from_data(train, bins)
            reference = histogram.probabilities(train)
            training_scores = EmpiricalDistribution(
                np.array(
                    [
                        divergence(histogram.probabilities(week), reference)
                        for week in train
                    ]
                )
            )
            threshold = training_scores.upper_tail_threshold(significance)
            attack_score = divergence(
                histogram.probabilities(attack_week), reference
            )
            normal_score = divergence(
                histogram.probabilities(normal_week), reference
            )
            if attack_score > threshold:
                detected += 1
            if normal_score > threshold:
                false_positives += 1
        results[name] = AblationPoint(
            parameter=float(bins),
            detection_rate=detected / len(prepared),
            false_positive_rate=false_positives / len(prepared),
        )
    return results
