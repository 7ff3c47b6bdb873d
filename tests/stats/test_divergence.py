"""Unit tests for divergence measures."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.stats.divergence import (
    js_divergence,
    kl_divergence,
    row_kl_divergences,
)


class TestKLDivergence:
    def test_identical_distributions_zero(self):
        p = np.array([0.25, 0.25, 0.25, 0.25])
        assert kl_divergence(p, p) == pytest.approx(0.0, abs=1e-12)

    def test_known_value_base2(self):
        p = np.array([0.5, 0.5])
        q = np.array([0.25, 0.75])
        expected = 0.5 * np.log2(0.5 / 0.25) + 0.5 * np.log2(0.5 / 0.75)
        assert kl_divergence(p, q) == pytest.approx(expected)

    def test_non_negative(self, rng):
        for _ in range(50):
            p = rng.dirichlet(np.ones(8))
            q = rng.dirichlet(np.ones(8))
            assert kl_divergence(p, q) >= -1e-12

    def test_asymmetric(self):
        p = np.array([0.9, 0.1])
        q = np.array([0.5, 0.5])
        assert kl_divergence(p, q) != pytest.approx(kl_divergence(q, p))

    def test_zero_p_bins_contribute_nothing(self):
        p = np.array([0.0, 1.0])
        q = np.array([0.5, 0.5])
        assert kl_divergence(p, q) == pytest.approx(1.0)  # log2(1/0.5)

    def test_zero_q_bin_smoothed_finite(self):
        p = np.array([0.5, 0.5])
        q = np.array([1.0, 0.0])
        value = kl_divergence(p, q)
        assert np.isfinite(value)
        assert value > 5.0  # heavily penalised but finite

    def test_base_e(self):
        p = np.array([0.5, 0.5])
        q = np.array([0.25, 0.75])
        assert kl_divergence(p, q, base=np.e) == pytest.approx(
            kl_divergence(p, q) * np.log(2.0)
        )

    def test_rejects_length_mismatch(self):
        with pytest.raises(ConfigurationError):
            kl_divergence(np.array([1.0]), np.array([0.5, 0.5]))

    def test_rejects_unnormalised(self):
        with pytest.raises(ConfigurationError):
            kl_divergence(np.array([0.5, 0.6]), np.array([0.5, 0.5]))

    def test_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            kl_divergence(np.array([-0.5, 1.5]), np.array([0.5, 0.5]))


class TestSymmetricAndJS:
    def test_js_symmetric(self, rng):
        p = rng.dirichlet(np.ones(5))
        q = rng.dirichlet(np.ones(5))
        assert js_divergence(p, q) == pytest.approx(js_divergence(q, p))

    def test_js_bounded_by_one_bit(self, rng):
        for _ in range(20):
            p = rng.dirichlet(np.ones(6))
            q = rng.dirichlet(np.ones(6))
            assert 0.0 <= js_divergence(p, q) <= 1.0 + 1e-9

    def test_js_zero_for_identical(self):
        p = np.array([0.3, 0.7])
        assert js_divergence(p, p) == pytest.approx(0.0, abs=1e-12)


class TestValidationEdges:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_total(self, bad):
        with pytest.raises(ConfigurationError):
            kl_divergence(np.array([bad, 0.5]), np.array([0.5, 0.5]))
        with pytest.raises(ConfigurationError):
            kl_divergence(np.array([0.5, 0.5]), np.array([0.5, bad]))

    def test_sum_tolerance_matches_isclose(self):
        q = np.array([0.5, 0.5])
        inside = np.array([0.5, 0.5 + 1.09e-5])
        outside = np.array([0.5, 0.5 + 1.11e-5])
        assert np.isclose(inside.sum(), 1.0, atol=1e-6)
        assert not np.isclose(outside.sum(), 1.0, atol=1e-6)
        kl_divergence(inside, q)
        with pytest.raises(ConfigurationError):
            kl_divergence(outside, q)


class TestRowDivergences:
    def test_rows_equal_one_row_calls(self, rng):
        q = rng.dirichlet(np.ones(10))
        q[3] = 0.0
        q /= q.sum()
        rows = rng.dirichlet(np.ones(10), size=12)
        rows[0, [1, 4, 5]] = 0.0  # fewer than eight terms to sum
        rows[0] /= rows[0].sum()
        rows[1] = np.eye(10)[3]  # all mass in q's empty bin
        batched = row_kl_divergences(rows, q)
        assert np.array_equal(
            batched, np.array([kl_divergence(p, q) for p in rows])
        )

    def test_rejects_bad_rows(self):
        q = np.array([0.5, 0.5])
        with pytest.raises(ConfigurationError):
            row_kl_divergences(np.array([[0.5, 0.6]]), q)
        with pytest.raises(ConfigurationError):
            row_kl_divergences(np.array([[1.5, -0.5]]), q)
        with pytest.raises(ConfigurationError):
            row_kl_divergences(np.array([0.5, 0.5]), q)
        with pytest.raises(ConfigurationError):
            row_kl_divergences(np.array([[1.0]]), q)
