"""Unit tests for smart meters, tampering, and tamper seals."""

import pytest

from repro.errors import MeteringError
from repro.metering.errors_model import MeasurementErrorModel
from repro.metering.meter import SmartMeter, TamperSeal


def exact_meter(**kwargs):
    return SmartMeter(
        meter_id="m1",
        consumer_id="c1",
        error_model=MeasurementErrorModel.exact(),
        **kwargs,
    )


class TestHonestMeter:
    def test_reports_what_it_measures(self, rng):
        meter = exact_meter()
        assert meter.report(4.2, rng) == 4.2

    def test_measurement_error_applied(self, rng):
        meter = SmartMeter(meter_id="m1", consumer_id="c1")
        readings = [meter.report(10.0, rng) for _ in range(100)]
        assert any(r != 10.0 for r in readings)
        assert all(abs(r - 10.0) / 10.0 < 0.05 for r in readings)

    def test_rejects_negative_demand(self, rng):
        with pytest.raises(MeteringError):
            exact_meter().report(-1.0, rng)


class TestTampering:
    def test_under_report_halves_reading(self, rng):
        meter = exact_meter()
        meter.compromise(lambda measured: measured * 0.5)
        assert meter.report(8.0, rng) == 4.0

    def test_restore_removes_tamper(self, rng):
        meter = exact_meter()
        meter.compromise(lambda measured: 0.0)
        meter.restore()
        assert meter.report(8.0, rng) == 8.0

    def test_tamper_function_cannot_report_negative(self, rng):
        meter = exact_meter()
        meter.compromise(lambda measured: measured - 100.0)
        with pytest.raises(MeteringError):
            meter.report(5.0, rng)

    def test_unbypassable_seal_trips(self):
        meter = exact_meter(seal=TamperSeal(bypassable=False))
        with pytest.raises(MeteringError):
            meter.compromise(lambda m: m)
        assert meter.seal.tripped

    def test_bypassable_seal_stays_quiet(self):
        """Penetration-tested reality ([22]): seals can be bypassed."""
        meter = exact_meter()
        meter.compromise(lambda m: m * 0.9)
        assert not meter.seal.tripped

    def test_tamper_sees_measured_not_actual(self, rng):
        # With a tap installed, the tamper function receives the metered
        # (post-tap) flow.
        meter = exact_meter()
        meter.install_upstream_tap(2.0)
        seen = {}
        meter.compromise(lambda m: seen.setdefault("value", m) or m)
        meter.report(5.0, rng)
        assert seen["value"] == pytest.approx(3.0)


class TestMeasure:
    def test_tap_subtracted_before_measurement(self, rng):
        meter = exact_meter()
        meter.install_upstream_tap(4.0)
        assert meter.measure(10.0, rng) == pytest.approx(6.0)

    def test_tap_larger_than_demand_floors_at_zero(self, rng):
        meter = exact_meter()
        meter.install_upstream_tap(10.0)
        assert meter.measure(3.0, rng) == 0.0

    def test_has_tap_flag(self, rng):
        meter = exact_meter()
        assert meter.measure(3.0, rng) == 3.0
        meter.install_upstream_tap(1.0)
        assert meter.measure(3.0, rng) == 2.0
