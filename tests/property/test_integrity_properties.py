"""Property-based tests for the training-integrity subsystem."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attacks.injection.ramp import BoilingFrogRampAttack
from repro.core.framework import FDetaFramework
from repro.core.kld import KLDDetector
from repro.integrity import DriftSentinel, IntegrityConfig, winsorize_matrix
from repro.integrity.registry import _framework_state, state_fingerprint
from repro.timeseries.seasonal import SLOTS_PER_WEEK


def _matrix(seed, weeks: int, scale: float = 1.0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    template = 0.2 + np.abs(np.sin(np.linspace(0, 14 * np.pi, SLOTS_PER_WEEK)))
    noise = rng.lognormal(0.0, 0.2, size=(weeks, SLOTS_PER_WEEK))
    return scale * template * noise


class TestTrainOrderInvariance:
    """``FDetaFramework.train`` must not depend on mapping key order.

    The model registry fingerprints framework state, and the rollback
    proofs compare those fingerprints across runs — so two trainings
    on the same per-consumer matrices must produce identical state even
    when the dict was assembled in a different order (parallel shards,
    recovered checkpoints, scrambled ingestion all reorder it).
    """

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n_consumers=st.integers(min_value=2, max_value=6),
        permutation_seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=15, deadline=None)
    def test_key_order_does_not_change_the_trained_state(
        self, seed, n_consumers, permutation_seed
    ):
        matrices = {
            f"c{i:02d}": _matrix((seed, i), weeks=6)
            for i in range(n_consumers)
        }
        order = list(matrices)
        np.random.default_rng(permutation_seed).shuffle(order)
        shuffled = {cid: matrices[cid] for cid in order}

        a = FDetaFramework(
            detector_factory=lambda: KLDDetector(significance=0.05)
        )
        a.train(matrices)
        b = FDetaFramework(
            detector_factory=lambda: KLDDetector(significance=0.05)
        )
        b.train(shuffled)
        assert state_fingerprint(_framework_state(a)) == state_fingerprint(
            _framework_state(b)
        )

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=10, deadline=None)
    def test_assessments_agree_across_key_orders(self, seed):
        matrices = {f"c{i:02d}": _matrix((seed, i), weeks=6) for i in range(3)}
        reversed_matrices = dict(reversed(list(matrices.items())))
        a = FDetaFramework(
            detector_factory=lambda: KLDDetector(significance=0.05)
        )
        a.train(matrices)
        b = FDetaFramework(
            detector_factory=lambda: KLDDetector(significance=0.05)
        )
        b.train(reversed_matrices)
        week = _matrix((seed, 99), weeks=1)[0]
        for cid in matrices:
            ra = a.assess_week(cid, week)
            rb = b.assess_week(cid, week)
            assert (ra.nature, ra.result.score, ra.result.threshold) == (
                rb.nature,
                rb.result.score,
                rb.result.threshold,
            )


class TestSentinelProperties:
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        weeks=st.integers(min_value=3, max_value=24),
    )
    @settings(max_examples=25, deadline=None)
    def test_screen_is_a_pure_function(self, seed, weeks):
        matrix = _matrix(seed, weeks)
        sentinel = DriftSentinel(IntegrityConfig())
        assert sentinel.screen(matrix, range(weeks)) == sentinel.screen(
            matrix, range(weeks)
        )

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        weeks=st.integers(min_value=3, max_value=24),
    )
    @settings(max_examples=25, deadline=None)
    def test_kept_weeks_are_a_subset_with_the_reference_prefix(
        self, seed, weeks
    ):
        config = IntegrityConfig()
        result = DriftSentinel(config).screen(_matrix(seed, weeks), range(weeks))
        kept = set(result.kept_weeks)
        assert kept <= set(range(weeks))
        for week in range(min(config.reference_weeks, weeks)):
            assert week in kept
        suspect = {v.week for v in result.suspects}
        assert kept.isdisjoint(suspect)
        assert kept | suspect == set(range(weeks))


class TestWinsorizeProperties:
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        weeks=st.integers(min_value=2, max_value=12),
    )
    @settings(max_examples=25, deadline=None)
    def test_output_bounded_by_pooled_quantiles_and_idempotent(
        self, seed, weeks
    ):
        matrix = _matrix(seed, weeks)
        clipped = winsorize_matrix(matrix, (0.05, 0.95))
        low, high = np.quantile(matrix, (0.05, 0.95))
        assert clipped.shape == matrix.shape
        assert clipped.min() >= low - 1e-12
        assert clipped.max() <= high + 1e-12
        again = winsorize_matrix(clipped, (0.0, 1.0))
        assert np.allclose(again, clipped)


class TestRampProperties:
    @given(
        decay=st.floats(min_value=0.5, max_value=0.99),
        floor=st.floats(min_value=0.05, max_value=0.9),
        weeks=st.integers(min_value=1, max_value=40),
    )
    @settings(max_examples=50, deadline=None)
    def test_factors_monotone_bounded_and_floored(self, decay, floor, weeks):
        attack = BoilingFrogRampAttack(weekly_decay=decay, floor=floor)
        factors = np.array([attack.factor_for_week(k) for k in range(weeks)])
        assert factors.shape == (weeks,)
        assert np.all(np.diff(factors) <= 1e-12)
        assert np.all(factors >= floor - 1e-12)
        assert np.all(factors <= 1.0)
        horizon = max(int(np.ceil(np.log(floor) / np.log(decay))), 0)
        if weeks > horizon:
            assert factors[horizon] == floor
