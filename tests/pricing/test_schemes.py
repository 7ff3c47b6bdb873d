"""Unit tests for pricing schemes."""

import numpy as np
import pytest

from repro.errors import PricingError
from repro.pricing.schemes import (
    ELECTRIC_IRELAND_NIGHTSAVER,
    FlatRatePricing,
    RealTimePricing,
    TimeOfUsePricing,
)
from repro.timeseries.seasonal import SLOTS_PER_DAY, SLOTS_PER_WEEK


class TestFlatRate:
    def test_constant_price(self):
        scheme = FlatRatePricing(rate=0.2)
        assert scheme.price(0) == 0.2
        assert scheme.price(10_000) == 0.2
        assert not scheme.is_variable

    def test_price_vector(self):
        vec = FlatRatePricing(rate=0.3).price_vector(5)
        assert np.allclose(vec, 0.3)

    def test_rejects_negative_rate(self):
        with pytest.raises(PricingError):
            FlatRatePricing(rate=-0.1)

    def test_rejects_negative_time(self):
        with pytest.raises(PricingError):
            FlatRatePricing().price(-1)


class TestTimeOfUse:
    def test_nightsaver_rates(self):
        """The Section VIII-C tariff: 0.21 peak / 0.18 off-peak."""
        tariff = ELECTRIC_IRELAND_NIGHTSAVER
        assert tariff.price(0) == 0.18  # midnight: off-peak
        assert tariff.price(17) == 0.18  # 8:30am: off-peak
        assert tariff.price(18) == 0.21  # 9:00am: peak starts
        assert tariff.price(47) == 0.21  # 11:30pm: peak

    def test_peak_window_daily_periodic(self):
        tariff = TimeOfUsePricing()
        assert tariff.peak_mask(1, start=18)[0]
        assert tariff.peak_mask(1, start=18 + SLOTS_PER_DAY)[0]
        assert not tariff.peak_mask(1, start=SLOTS_PER_DAY)[0]  # next midnight

    def test_peak_mask_week(self):
        mask = TimeOfUsePricing().peak_mask(SLOTS_PER_WEEK)
        assert mask.sum() == 7 * 30  # 15 peak hours per day
        assert mask.size == SLOTS_PER_WEEK

    def test_is_variable(self):
        assert TimeOfUsePricing().is_variable

    def test_custom_window(self):
        tariff = TimeOfUsePricing(peak_start_slot=10, peak_end_slot=20)
        assert not tariff.peak_mask(1, start=9)[0]
        assert tariff.peak_mask(1, start=10)[0]
        assert not tariff.peak_mask(1, start=20)[0]

    def test_rejects_bad_window(self):
        with pytest.raises(PricingError):
            TimeOfUsePricing(peak_start_slot=30, peak_end_slot=10)
        with pytest.raises(PricingError):
            TimeOfUsePricing(peak_start_slot=0, peak_end_slot=100)

    def test_rejects_negative_rates(self):
        with pytest.raises(PricingError):
            TimeOfUsePricing(peak_rate=-0.1)


class TestRealTime:
    def test_series_lookup_with_update_period(self):
        scheme = RealTimePricing(prices=np.array([0.1, 0.2]), update_period=3)
        assert scheme.price(0) == 0.1
        assert scheme.price(2) == 0.1
        assert scheme.price(3) == 0.2

    def test_beyond_horizon_raises(self):
        scheme = RealTimePricing(prices=np.array([0.1]), update_period=2)
        with pytest.raises(PricingError):
            scheme.price(2)

    def test_simulate_covers_horizon(self):
        scheme = RealTimePricing.simulate(n_slots=100, update_period=4, seed=1)
        vec = scheme.price_vector(100)
        assert vec.size == 100
        assert np.all(vec > 0)

    def test_simulate_mean_reverting(self):
        scheme = RealTimePricing.simulate(
            n_slots=5000, mean=0.25, volatility=0.01, seed=2
        )
        assert scheme.price_vector(5000).mean() == pytest.approx(0.25, abs=0.05)

    def test_simulate_deterministic(self):
        a = RealTimePricing.simulate(n_slots=50, seed=3).prices
        b = RealTimePricing.simulate(n_slots=50, seed=3).prices
        assert np.array_equal(a, b)

    def test_rejects_empty_series(self):
        with pytest.raises(PricingError):
            RealTimePricing(prices=np.array([]))

    def test_rejects_negative_prices(self):
        with pytest.raises(PricingError):
            RealTimePricing(prices=np.array([-0.1]))

    def test_is_variable(self):
        assert RealTimePricing(prices=np.array([0.1])).is_variable


def _rtp_long() -> RealTimePricing:
    return RealTimePricing.simulate(n_slots=1200, update_period=3, seed=9)


#: One scheme of each kind, plus a custom TOU window and an RTP series
#: that advances every polling slot.
ARRAY_SCHEMES = {
    "flat": FlatRatePricing(rate=0.23),
    "tou": ELECTRIC_IRELAND_NIGHTSAVER,
    "tou_custom": TimeOfUsePricing(
        peak_rate=0.3, offpeak_rate=0.1, peak_start_slot=5, peak_end_slot=41
    ),
    "rtp_period_1": RealTimePricing(
        prices=np.arange(1, 1201) / 1000.0, update_period=1
    ),
    "rtp_period_3": _rtp_long(),
}

#: Window starts across day (48) and week (336) boundaries.
STARTS = (0, 1, 17, 18, 47, 48, 49, 335, 336, 337, 671, 672, 700)
LENGTHS = (0, 1, 2, 30, 48, 49, 336)


def _reference_price(scheme, t: int) -> float:
    """The tariff definitions, slot by slot, independent of the arrays."""
    if isinstance(scheme, FlatRatePricing):
        return scheme.rate
    if isinstance(scheme, TimeOfUsePricing):
        peak = scheme.peak_start_slot <= t % SLOTS_PER_DAY < scheme.peak_end_slot
        return scheme.peak_rate if peak else scheme.offpeak_rate
    return float(scheme.prices[t // scheme.update_period])


class TestArrayTariffs:
    """``price_vector`` is the single implementation; ``price`` a view."""

    @pytest.mark.parametrize("name", sorted(ARRAY_SCHEMES))
    @pytest.mark.parametrize("start", STARTS)
    def test_vector_equals_scalar_prices(self, name, start):
        scheme = ARRAY_SCHEMES[name]
        for n in LENGTHS:
            vec = scheme.price_vector(n, start=start)
            assert vec.dtype == np.float64
            assert np.array_equal(
                vec, np.array([scheme.price(start + i) for i in range(n)])
            )
            assert np.array_equal(
                vec,
                np.array(
                    [_reference_price(scheme, start + i) for i in range(n)],
                    dtype=float,
                ),
            )

    @pytest.mark.parametrize("name", ["tou", "tou_custom"])
    @pytest.mark.parametrize("start", STARTS)
    def test_peak_mask_equals_is_peak(self, name, start):
        scheme = ARRAY_SCHEMES[name]
        mask = scheme.peak_mask(SLOTS_PER_WEEK, start=start)
        assert mask.dtype == np.bool_
        assert np.array_equal(
            mask,
            np.array(
                [
                    scheme.peak_start_slot
                    <= (start + i) % SLOTS_PER_DAY
                    < scheme.peak_end_slot
                    for i in range(SLOTS_PER_WEEK)
                ]
            ),
        )

    def test_rtp_update_period_holds_each_price(self):
        scheme = RealTimePricing(prices=np.array([0.1, 0.2, 0.3]), update_period=3)
        assert np.array_equal(
            scheme.price_vector(7, start=2),
            np.array([0.1, 0.2, 0.2, 0.2, 0.3, 0.3, 0.3]),
        )

    def test_rtp_vector_does_not_alias_the_series(self):
        scheme = RealTimePricing(prices=np.array([0.1, 0.2]), update_period=1)
        scheme.price_vector(2)[:] = 9.0
        assert np.array_equal(scheme.prices, np.array([0.1, 0.2]))

    @pytest.mark.parametrize("name", sorted(ARRAY_SCHEMES))
    def test_negative_start_raises(self, name):
        scheme = ARRAY_SCHEMES[name]
        with pytest.raises(PricingError, match="time period must be >= 0"):
            scheme.price_vector(3, start=-1)
        with pytest.raises(PricingError, match="time period must be >= 0"):
            scheme.price(-2)

    @pytest.mark.parametrize("name", sorted(ARRAY_SCHEMES))
    def test_negative_length_raises(self, name):
        with pytest.raises(PricingError, match="n_slots must be >= 0"):
            ARRAY_SCHEMES[name].price_vector(-1)

    def test_tou_is_peak_rejects_negative_slot(self):
        with pytest.raises(PricingError):
            TimeOfUsePricing().peak_mask(1, start=-1)
        with pytest.raises(PricingError):
            TimeOfUsePricing().peak_mask(4, start=-3)

    def test_rtp_horizon_is_exact(self):
        scheme = RealTimePricing(prices=np.array([0.1, 0.2]), update_period=3)
        assert scheme.price_vector(6).size == 6  # slots 0..5: in horizon
        assert scheme.price_vector(0, start=6).size == 0
        with pytest.raises(PricingError, match="time period 6 beyond"):
            scheme.price_vector(7)
        with pytest.raises(PricingError, match="time period 8 beyond"):
            scheme.price_vector(2, start=8)
        with pytest.raises(PricingError, match="time period 6 beyond"):
            scheme.price(6)
