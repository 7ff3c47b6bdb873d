"""Unit tests for the fault-injection harness and retry policy."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.metering.channel import LossyChannel
from repro.resilience.faults import FaultInjector, FaultyChannel
from repro.resilience.retry import RetryPolicy


class TestFaultInjector:
    def test_no_faults_is_identity(self, rng):
        injector = FaultInjector()
        readings = {"a": 1.0, "b": 2.0}
        assert injector.apply(readings, rng) == readings

    def test_preserves_keys(self, rng):
        injector = FaultInjector(
            duplicate_rate=0.5, stuck_rate=0.2, corrupt_rate=0.3
        )
        readings = {f"m{i}": float(i) for i in range(10)}
        out = injector.apply(readings, rng)
        assert set(out) == set(readings)

    def test_stuck_meter_repeats_value(self, rng):
        injector = FaultInjector(stuck_rate=1.0, stuck_mean_cycles=100.0)
        first = injector.apply({"m": 1.5}, rng)
        assert first == {"m": 1.5}
        later = injector.apply({"m": 9.9}, rng)
        assert later == {"m": 1.5}

    def test_stuck_run_eventually_ends(self, rng):
        injector = FaultInjector(stuck_rate=1.0, stuck_mean_cycles=100.0)
        injector.apply({"m": 3.0}, rng)
        injector._stuck["m"] = (3.0, 1)
        injector.apply({"m": 7.0}, rng)  # last stuck cycle
        assert "m" not in injector._stuck

    def test_clock_skew_lags_one_cycle(self, rng):
        injector = FaultInjector(clock_skew_rate=1.0)
        first = injector.apply({"m": 1.0}, rng)
        # No previous value yet: the first skewed cycle passes through.
        assert first == {"m": 1.0}
        second = injector.apply({"m": 2.0}, rng)
        assert second == {"m": 1.0}
        third = injector.apply({"m": 3.0}, rng)
        assert third == {"m": 2.0}

    def test_duplicate_resends_previous_reading(self, rng):
        injector = FaultInjector(duplicate_rate=1.0)
        injector.apply({"m": 5.0}, rng)
        out = injector.apply({"m": 6.0}, rng)
        assert out == {"m": 5.0}

    def test_corruption_produces_invalid_values(self, rng):
        injector = FaultInjector(corrupt_rate=1.0)
        out = injector.apply({f"m{i}": 1.0 for i in range(50)}, rng)
        for value in out.values():
            assert not (np.isfinite(value) and value >= 0)

    def test_rejects_bad_rates(self):
        with pytest.raises(ConfigurationError):
            FaultInjector(duplicate_rate=1.5)
        with pytest.raises(ConfigurationError):
            FaultInjector(corrupt_rate=-0.1)
        with pytest.raises(ConfigurationError):
            FaultInjector(stuck_mean_cycles=0.0)


class TestFaultyChannel:
    def test_perfect_channel_no_faults_is_identity(self, rng):
        channel = FaultyChannel(
            channel=LossyChannel(drop_rate=0.0, outage_rate=0.0)
        )
        readings = {"a": 1.0, "b": 2.0}
        assert channel.transmit(readings, rng) == readings

    def test_silence_kills_meter(self, rng):
        channel = FaultyChannel(
            channel=LossyChannel(drop_rate=0.0, outage_rate=0.0)
        )
        channel.channel.silence("a")
        for _ in range(10):
            out = channel.transmit({"a": 1.0, "b": 2.0}, rng)
            assert out == {"b": 2.0}
        assert channel.in_outage("a")

    def test_corruption_flows_through(self, rng):
        channel = FaultyChannel(
            channel=LossyChannel(drop_rate=0.0, outage_rate=0.0),
            faults=FaultInjector(corrupt_rate=1.0),
        )
        out = channel.transmit({"m": 1.0}, rng)
        assert not (np.isfinite(out["m"]) and out["m"] >= 0)


class TestRetryPolicy:
    def test_backoff_cost_grows_geometrically(self):
        policy = RetryPolicy(backoff_base=2.0)
        assert policy.attempt_cost(0) == 1.0
        assert policy.attempt_cost(1) == 2.0
        assert policy.attempt_cost(2) == 4.0

    def test_rejects_bad_configuration(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_attempts=-1)
        with pytest.raises(ConfigurationError):
            RetryPolicy(backoff_base=0.5)
        with pytest.raises(ConfigurationError):
            RetryPolicy().attempt_cost(-1)
