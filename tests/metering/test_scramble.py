"""ScramblingChannel: delay, duplicate, and burst-batch — never lose."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.metering import ScramblingChannel, scramble_series


def _collect(channel, n_slots, per_slot):
    """Push ``per_slot`` readings per slot, return delay per delivery."""
    rng = np.random.default_rng(3)
    delays = []
    for t in range(n_slots):
        channel.push(t, per_slot(t), rng)
        for reading in channel.pop_due(t):
            delays.append(t - reading.slot)
    for reading in channel.drain():
        delays.append(n_slots - reading.slot)
    return delays


class TestValidation:
    def test_rates_bounded(self):
        with pytest.raises(ConfigurationError):
            ScramblingChannel(duplicate_rate=1.5)
        with pytest.raises(ConfigurationError):
            ScramblingChannel(outage_rate=-0.1)

    def test_shape_parameters(self):
        with pytest.raises(ConfigurationError):
            ScramblingChannel(median_delay_slots=-1.0)
        with pytest.raises(ConfigurationError):
            ScramblingChannel(sigma=-0.5)
        with pytest.raises(ConfigurationError):
            ScramblingChannel(max_delay_slots=-1)
        with pytest.raises(ConfigurationError):
            ScramblingChannel(outage_mean_slots=0.5)


class TestDelays:
    def test_no_reading_lost_and_cap_honoured(self):
        channel = ScramblingChannel(
            median_delay_slots=4.0, sigma=1.5, max_delay_slots=10
        )
        delays = _collect(
            channel, 200, lambda t: {"a": 1.0, "b": 2.0}
        )
        assert len(delays) == 400  # every pushed reading delivered
        assert all(0 <= d <= 10 for d in delays)
        assert channel.pending == 0

    def test_zero_delay_delivers_in_order(self):
        channel = ScramblingChannel(median_delay_slots=0.0)
        rng = np.random.default_rng(0)
        channel.push(0, {"a": 1.0}, rng)
        (reading,) = channel.pop_due(0)
        assert (reading.consumer_id, reading.slot) == ("a", 0)

    def test_duplicates_redeliver_same_value(self):
        channel = ScramblingChannel(
            median_delay_slots=1.0, duplicate_rate=1.0, max_delay_slots=5
        )
        rng = np.random.default_rng(1)
        channel.push(0, {"a": 3.25}, rng)
        delivered = channel.pop_due(100)
        assert len(delivered) == 2
        assert all(r.value == 3.25 and r.slot == 0 for r in delivered)

    def test_deterministic_for_same_rng_stream(self):
        def run():
            channel = ScramblingChannel(
                median_delay_slots=3.0, duplicate_rate=0.1, outage_rate=0.02
            )
            rng = np.random.default_rng(42)
            out = []
            for t in range(100):
                channel.push(t, {"a": float(t), "b": float(-t)}, rng)
                out.append(channel.pop_due(t))
            out.append(channel.drain())
            return out

        assert run() == run()


class TestOutageBatching:
    def test_silenced_consumer_delivers_backlog_as_one_burst(self):
        channel = ScramblingChannel(median_delay_slots=0.0)
        rng = np.random.default_rng(2)
        channel.silence("a", until_slot=5)
        for t in range(5):
            channel.push(t, {"a": float(t), "b": 1.0}, rng)
            delivered = channel.pop_due(t)
            # b flows through; a is held for the whole outage.
            assert [r.consumer_id for r in delivered] == ["b"]
        assert channel.in_outage("a", 4)
        assert not channel.in_outage("a", 5)
        channel.push(5, {"a": 5.0, "b": 1.0}, rng)
        burst = channel.pop_due(5)
        held = [r for r in burst if r.consumer_id == "a" and r.slot < 5]
        assert [r.slot for r in held] == [0, 1, 2, 3, 4]

    def test_silence_validates(self):
        with pytest.raises(ConfigurationError):
            ScramblingChannel().silence("a", until_slot=-1)


class TestScrambleSeries:
    def test_batches_cover_every_finite_reading(self):
        series = {
            "a": np.array([1.0, 2.0, np.nan, 4.0]),
            "b": np.array([5.0, 6.0, 7.0, 8.0]),
        }
        channel = ScramblingChannel(median_delay_slots=1.0, max_delay_slots=3)
        batches = scramble_series(series, channel, np.random.default_rng(9))
        assert len(batches) == 5  # one per slot plus the drain
        delivered = [r for batch in batches for r in batch]
        assert len(delivered) == 7  # the NaN slot is never pushed
        assert {(r.consumer_id, r.slot) for r in delivered} == {
            ("a", 0), ("a", 1), ("a", 3),
            ("b", 0), ("b", 1), ("b", 2), ("b", 3),
        }

    def test_length_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            scramble_series(
                {"a": np.ones(4), "b": np.ones(5)},
                ScramblingChannel(),
                np.random.default_rng(0),
            )
