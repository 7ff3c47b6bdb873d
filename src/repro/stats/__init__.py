"""Statistics substrate: histograms, divergences, sampling, and summaries.

These are the low-level numerical building blocks that the KLD detector
(:mod:`repro.core`) and the attack injectors (:mod:`repro.attacks`) are
built on.  Everything here is deterministic given a seed and operates on
plain :class:`numpy.ndarray` values.
"""

from repro.stats.histogram import (
    FixedEdgeHistogram,
    binned_counts,
    histogram_edges,
    relative_frequencies,
)
from repro.stats.divergence import (
    js_divergence,
    kl_divergence,
    row_kl_divergences,
)
from repro.stats.truncated_normal import TruncatedNormal, sample_truncated_normal
from repro.stats.percentile import EmpiricalDistribution, percentile

__all__ = [
    "EmpiricalDistribution",
    "FixedEdgeHistogram",
    "TruncatedNormal",
    "binned_counts",
    "histogram_edges",
    "js_divergence",
    "kl_divergence",
    "percentile",
    "relative_frequencies",
    "row_kl_divergences",
    "sample_truncated_normal",
]
