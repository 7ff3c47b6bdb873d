"""Preprocessing utilities for raw smart-meter exports.

Real AMI data arrives with communication gaps, stuck-meter plateaus, and
impossible spikes.  The paper's preprocessing drops gap-ridden consumers
outright (as does :func:`repro.data.load_cer_file`); these utilities
offer the gentler alternatives a utility deploys in practice so fewer
consumers are discarded, while keeping every operation explicit and
testable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError, DataError


def observed_fraction(series: np.ndarray) -> float:
    """Fraction of finite (observed) slots in a possibly-gappy series.

    The monitoring service reports this as a week's *coverage*: 1.0 for
    a fully-observed week, lower when communication gaps survived repair.
    """
    arr = np.asarray(series, dtype=float).ravel()
    if arr.size == 0:
        raise DataError("series is empty")
    return float(np.isfinite(arr).mean())


def repair_gaps(matrix: np.ndarray, max_gap: int = 4) -> np.ndarray:
    """Linearly interpolate every row's NaN runs of up to ``max_gap`` slots.

    One masked pass over a ``(rows, slots)`` matrix; returns a repaired
    copy.  Each NaN slot finds the previous and next observed slot of
    its row (a running ``maximum``/``minimum`` of observed indices); the
    run between them is filled when it is at most ``max_gap`` long.  An
    interior run is interpolated exactly as :func:`numpy.interp` does,
    ``slope * (x - left) + fp[left]``; a leading or trailing run takes
    the nearest reading.  Longer runs, and rows with no reading at all,
    stay NaN.
    """
    if max_gap < 1:
        raise ConfigurationError(f"max_gap must be >= 1, got {max_gap}")
    out = np.array(matrix, dtype=float)
    if out.ndim != 2:
        raise DataError(f"expected a (rows, slots) matrix, got {out.ndim}-d")
    gaps = np.isnan(out)
    if not gaps.any():
        return out
    n_slots = out.shape[1]
    slots = np.arange(n_slots)
    prev = np.maximum.accumulate(np.where(gaps, -1, slots), axis=1)
    after = np.minimum.accumulate(
        np.where(gaps, n_slots, slots)[:, ::-1], axis=1
    )[:, ::-1]
    fill = (
        gaps
        & (after - prev - 1 <= max_gap)
        & ((prev >= 0) | (after < n_slots))
    )
    rows, cols = np.nonzero(fill)
    left, right = prev[rows, cols], after[rows, cols]
    interior = (left >= 0) & (right < n_slots)
    # A leading run reads its right neighbour, a trailing one its left.
    left = np.where(left >= 0, left, right)
    right = np.where(right < n_slots, right, left)
    low, high = out[rows, left], out[rows, right]
    slope = (high - low) / np.where(interior, right - left, 1)
    out[rows, cols] = np.where(interior, slope * (cols - left) + low, low)
    return out


def interpolate_gaps(
    series: np.ndarray, max_gap: int = 4
) -> np.ndarray:
    """Linearly interpolate NaN gaps of up to ``max_gap`` slots.

    The one-row case of :func:`repair_gaps`.  Longer gaps are left as
    NaN (the caller should drop or seed them); leading/trailing NaNs are
    filled with the nearest valid reading when within ``max_gap``.
    """
    if max_gap < 1:
        raise ConfigurationError(f"max_gap must be >= 1, got {max_gap}")
    arr = np.asarray(series, dtype=float).ravel()
    if arr.size and np.isnan(arr).all():
        raise DataError("series is entirely missing")
    return repair_gaps(arr[np.newaxis], max_gap)[0]


def clip_spikes(
    series: np.ndarray, max_multiple_of_p99: float = 3.0
) -> np.ndarray:
    """Clip physically implausible spikes.

    Readings above ``max_multiple_of_p99`` times the series' 99th
    percentile are treated as metering glitches and clipped down to that
    ceiling (a conductor cannot deliver 30x a consumer's historic peak).
    """
    if max_multiple_of_p99 <= 1.0:
        raise ConfigurationError(
            f"max_multiple_of_p99 must exceed 1, got {max_multiple_of_p99}"
        )
    arr = np.asarray(series, dtype=float).ravel().copy()
    finite = arr[np.isfinite(arr)]
    if finite.size == 0:
        raise DataError("series has no finite readings")
    ceiling = float(np.percentile(finite, 99.0)) * max_multiple_of_p99
    if ceiling <= 0:
        return arr
    return np.minimum(arr, ceiling)


def detect_stuck_meter(
    series: np.ndarray, min_run: int = 48
) -> tuple[int, int] | None:
    """Find the first run of >= ``min_run`` identical non-zero readings.

    A stuck electronic meter repeats its last register value; a day of
    literally identical readings is diagnostic.  Returns ``(start, length)``
    of the first such run, or ``None``.
    """
    if min_run < 2:
        raise ConfigurationError(f"min_run must be >= 2, got {min_run}")
    arr = np.asarray(series, dtype=float).ravel()
    if arr.size == 0:
        raise DataError("series is empty")
    run_start = 0
    for i in range(1, arr.size + 1):
        boundary = i == arr.size or arr[i] != arr[run_start]
        if boundary:
            run_len = i - run_start
            if run_len >= min_run and arr[run_start] != 0.0:
                return run_start, run_len
            run_start = i
    return None


@dataclass(frozen=True)
class PreprocessingSummary:
    """What :func:`preprocess_series` did to one consumer's record."""

    interpolated_slots: int
    clipped_slots: int
    stuck_run: tuple[int, int] | None
    dropped: bool


def preprocess_series(
    series: np.ndarray,
    max_gap: int = 4,
    max_multiple_of_p99: float = 3.0,
    stuck_run_slots: int = 48,
) -> tuple[np.ndarray, PreprocessingSummary]:
    """Full pipeline: interpolate, clip, and screen for stuck meters.

    Returns the cleaned series and a summary; ``dropped=True`` (with the
    raw series returned untouched) when unrecoverable gaps remain or a
    stuck-meter run is found — the consumer should then be excluded, as
    the paper's preprocessing does.
    """
    arr = np.asarray(series, dtype=float).ravel()
    interpolated = interpolate_gaps(arr, max_gap=max_gap)
    n_interpolated = int(np.sum(np.isnan(arr) & ~np.isnan(interpolated)))
    if np.isnan(interpolated).any():
        return arr, PreprocessingSummary(
            interpolated_slots=n_interpolated,
            clipped_slots=0,
            stuck_run=None,
            dropped=True,
        )
    clipped = clip_spikes(interpolated, max_multiple_of_p99=max_multiple_of_p99)
    n_clipped = int(np.sum(clipped < interpolated))
    stuck = detect_stuck_meter(clipped, min_run=stuck_run_slots)
    dropped = stuck is not None
    return (arr if dropped else clipped), PreprocessingSummary(
        interpolated_slots=n_interpolated,
        clipped_slots=n_clipped,
        stuck_run=stuck,
        dropped=dropped,
    )
