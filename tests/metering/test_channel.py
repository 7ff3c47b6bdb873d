"""Tests for the lossy AMI channel (failure injection)."""

import copy
import pickle

import numpy as np
import pytest

from repro.data.preprocessing import interpolate_gaps
from repro.errors import ConfigurationError
from repro.metering.channel import LossyChannel


class TestLossyChannel:
    def test_perfect_channel_delivers_everything(self, rng):
        channel = LossyChannel(drop_rate=0.0, outage_rate=0.0)
        readings = {f"m{i}": float(i) for i in range(20)}
        assert channel.transmit(readings, rng) == readings

    def test_drop_rate_statistics(self, rng):
        channel = LossyChannel(drop_rate=0.2, outage_rate=0.0)
        delivered = 0
        total = 20_000
        for _ in range(total):
            delivered += len(channel.transmit({"m": 1.0}, rng))
        assert delivered / total == pytest.approx(0.8, abs=0.01)

    def test_outage_silences_meter_for_a_burst(self, rng):
        channel = LossyChannel(
            drop_rate=0.0, outage_rate=1.0, outage_mean_cycles=5.0
        )
        # First cycle enters the outage; subsequent cycles stay silent
        # until it expires.
        assert channel.transmit({"m": 1.0}, rng) == {}
        assert channel.in_outage("m")

    def test_outage_eventually_recovers(self, rng):
        channel = LossyChannel(
            drop_rate=0.0, outage_rate=0.0, outage_mean_cycles=3.0
        )
        channel._outages["m"] = 2
        outcomes = [len(channel.transmit({"m": 1.0}, rng)) for _ in range(3)]
        assert outcomes == [0, 0, 1]

    def test_independent_meters(self, rng):
        channel = LossyChannel(drop_rate=0.0, outage_rate=0.0)
        channel._outages["a"] = 5
        delivered = channel.transmit({"a": 1.0, "b": 2.0}, rng)
        assert delivered == {"b": 2.0}

    def test_rejects_bad_rates(self):
        with pytest.raises(ConfigurationError):
            LossyChannel(drop_rate=1.5)
        with pytest.raises(ConfigurationError):
            LossyChannel(outage_rate=-0.1)
        with pytest.raises(ConfigurationError):
            LossyChannel(outage_mean_cycles=0.5)


class TestChannelLifecycle:
    """Regression tests for silence() and copy semantics."""

    def test_silence_forever(self, rng):
        channel = LossyChannel(drop_rate=0.0, outage_rate=0.0)
        channel.silence("m")
        for _ in range(1000):
            assert channel.transmit({"m": 1.0}, rng) == {}
        assert channel.in_outage("m")

    def test_silence_for_n_cycles(self, rng):
        channel = LossyChannel(drop_rate=0.0, outage_rate=0.0)
        channel.silence("m", cycles=3)
        outcomes = [len(channel.transmit({"m": 1.0}, rng)) for _ in range(4)]
        assert outcomes == [0, 0, 0, 1]

    def test_silence_rejects_bad_cycles(self):
        with pytest.raises(ConfigurationError):
            LossyChannel().silence("m", cycles=0)

    def test_deepcopy_forks_outage_state(self, rng):
        """Copies evolve independently — the parallel evaluation path
        deep-copies channels into worker processes mid-outage."""
        channel = LossyChannel(drop_rate=0.0, outage_rate=0.0)
        channel._outages["m"] = 2
        clone = copy.deepcopy(channel)
        # Draining the original's outage must not touch the clone.
        channel.transmit({"m": 1.0}, rng)
        channel.transmit({"m": 1.0}, rng)
        assert not channel.in_outage("m")
        assert clone.in_outage("m")
        assert clone._outages["m"] == 2

    def test_pickle_round_trip_mid_outage(self, rng):
        channel = LossyChannel(drop_rate=0.25, outage_rate=0.0)
        channel.silence("a", cycles=5)
        channel.silence("b")  # permanent (inf) must survive pickling
        revived = pickle.loads(pickle.dumps(channel))
        assert revived.drop_rate == 0.25
        assert revived._outages == channel._outages
        assert revived.in_outage("a") and revived.in_outage("b")


class TestDeliverSeries:
    def test_end_to_end_with_preprocessing(self, rng):
        """Failure injection end-to-end: a mildly lossy channel's gaps
        are fully repaired by the preprocessing pipeline."""
        series = rng.uniform(0.5, 1.5, size=2000)
        channel = LossyChannel(drop_rate=0.02, outage_rate=0.0)
        gappy = np.full(series.size, np.nan)
        for t, value in enumerate(series):
            gappy[t] = channel.transmit({"m": value}, rng).get("m", np.nan)
        assert np.isnan(gappy).any()
        repaired = interpolate_gaps(gappy, max_gap=4)
        assert not np.isnan(repaired).any()
        # Repaired values stay within the series' physical range.
        assert repaired.min() >= series.min() - 1e-9
        assert repaired.max() <= series.max() + 1e-9
