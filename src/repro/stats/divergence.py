"""Divergence measures between discrete probability distributions.

Equation (12) of the paper defines the per-week KL divergence in base 2.
The helpers here operate on already-normalised probability vectors such as
those produced by :class:`repro.stats.FixedEdgeHistogram`.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError

#: Small mass used to smooth empty bins in the reference distribution so the
#: divergence stays finite.  Empty bins arise when a candidate week contains
#: values in a bin that the training data never populated.
_SMOOTHING = 1e-12


def _check_sum(name: str, total: float) -> None:
    # np.isclose(total, 1.0, atol=1e-6) as a scalar test; NaN and inf
    # fail the comparison and are rejected.
    if not abs(total - 1.0) <= 1e-6 + 1e-5:
        raise ConfigurationError(f"{name} must sum to 1, sums to {total}")


def _validate_pair(p: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    p = np.asarray(p, dtype=float).ravel()
    q = np.asarray(q, dtype=float).ravel()
    if p.shape != q.shape:
        raise ConfigurationError(
            f"distributions must have equal length, got {p.size} and {q.size}"
        )
    if p.size == 0:
        raise ConfigurationError("distributions must be non-empty")
    if p.min() < -1e-9 or q.min() < -1e-9:
        raise ConfigurationError("distributions must be non-negative")
    _check_sum("p", p.sum())
    _check_sum("q", q.sum())
    return p, q


def _smoothed(q: np.ndarray) -> np.ndarray:
    return np.where(q <= 0, _SMOOTHING, q)


def _kl_terms_sum(p: np.ndarray, q: np.ndarray) -> np.float64:
    """Natural-log ``sum_j p_j (ln p_j - ln q_j)`` over the ``p_j > 0`` terms.

    Summing only the non-zero terms, in bin order, fixes numpy's pairwise
    summation order, so a row scored on its own and the same row scored
    in a batch give the same bits.
    """
    mask = p > 0
    terms = p[mask] * (np.log(p[mask]) - np.log(q[mask]))
    return terms.sum()


def kl_divergence(p: np.ndarray, q: np.ndarray, base: float = 2.0) -> float:
    """Kullback-Leibler divergence ``D(p || q)`` in the given log base.

    Terms with ``p_j == 0`` contribute zero (the usual convention).  Zero
    bins in ``q`` are smoothed with a tiny mass so the result is finite;
    this matches the detector's need for a usable ordering even when an
    attack pushes mass into bins the training data never saw.
    """
    p, q = _validate_pair(p, q)
    return float(_kl_terms_sum(p, _smoothed(q)) / np.log(base))


def row_kl_divergences(
    rows: np.ndarray, q: np.ndarray, base: float = 2.0
) -> np.ndarray:
    """``kl_divergence(row, q)`` for every row of a ``(rows, bins)`` matrix.

    The inputs are validated once for the whole matrix and ``q`` is
    smoothed once; each entry is bit-identical to the one-row call.
    """
    matrix = np.asarray(rows, dtype=float)
    q = np.asarray(q, dtype=float).ravel()
    if matrix.ndim != 2 or matrix.shape[1] != q.size:
        raise ConfigurationError(
            f"rows must be a (rows, {q.size}) matrix, got shape {matrix.shape}"
        )
    if matrix.size == 0:
        raise ConfigurationError("distributions must be non-empty")
    if matrix.min() < -1e-9 or q.min() < -1e-9:
        raise ConfigurationError("distributions must be non-negative")
    for total in matrix.sum(axis=1):
        _check_sum("p", total)
    _check_sum("q", q.sum())
    q = _smoothed(q)
    log_base = np.log(base)
    return np.array([_kl_terms_sum(row, q) / log_base for row in matrix])


def js_divergence(p: np.ndarray, q: np.ndarray, base: float = 2.0) -> float:
    """Jensen-Shannon divergence (bounded, symmetric alternative to KL).

    Provided for the ablation study comparing divergence choices; the paper
    itself uses plain KL divergence.
    """
    p, q = _validate_pair(p, q)
    m = 0.5 * (p + q)
    return 0.5 * kl_divergence(p, m, base=base) + 0.5 * kl_divergence(q, m, base=base)
