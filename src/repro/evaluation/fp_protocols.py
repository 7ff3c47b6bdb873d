"""False-positive evaluation protocols.

The paper evaluates false positives on the unattacked version of the
single attacked test week (see EXPERIMENTS.md, "Known deviations"); a
stricter protocol scores *every* held-out week.  This module implements
both so the compounding effect of per-week alpha over a 14-week test set
can be quantified rather than argued about.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.kld import KLDDetector
from repro.data.dataset import SmartMeterDataset
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class FalsePositiveStudy:
    """Per-protocol false-positive rates over a population."""

    significance: float
    single_week_rate: float
    any_week_rate: float
    per_week_rate: float


def false_positive_study(
    dataset: SmartMeterDataset,
    consumers: tuple[str, ...] | None = None,
    significance: float = 0.10,
    bins: int = 10,
) -> FalsePositiveStudy:
    """Measure KLD false positives under both protocols.

    * ``single_week_rate`` — fraction of consumers whose *first* test
      week is flagged (the paper's protocol);
    * ``any_week_rate`` — fraction whose *any* test week is flagged
      (the strict protocol);
    * ``per_week_rate`` — flag rate pooled over all consumer-weeks
      (should sit near ``significance`` by construction).
    """
    ids = dataset.consumers() if consumers is None else consumers
    if not ids:
        raise ConfigurationError("need at least one consumer")
    single = 0
    any_week = 0
    week_flags = 0
    week_total = 0
    for cid in ids:
        detector = KLDDetector(bins=bins, significance=significance).fit(
            dataset.train_matrix(cid)
        )
        flags = [detector.flags(week) for week in dataset.test_matrix(cid)]
        if flags[0]:
            single += 1
        if any(flags):
            any_week += 1
        week_flags += sum(flags)
        week_total += len(flags)
    n = len(ids)
    return FalsePositiveStudy(
        significance=significance,
        single_week_rate=single / n,
        any_week_rate=any_week / n,
        per_week_rate=week_flags / week_total,
    )
