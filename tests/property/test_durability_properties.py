"""Property-based tests: recovery is prefix-consistent for ANY crash offset.

The WAL's contract is that a crash at an arbitrary byte in the write
stream loses at most the unsynced tail: replay after the crash yields a
clean prefix of the acknowledged (synced) cycles, never a gap, never a
phantom record, and re-opening the directory repairs it to a state that
accepts appends again.  Hypothesis drives the crash offset across
segment headers, record headers, payload bodies, and rotation
boundaries of a multi-segment log.
"""

import math
import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.durability.crash import CrashingWAL, CrashPoint, SimulatedCrash
from repro.durability.wal import WriteAheadLog, replay_wal
from repro.quarantine.firewall import MeterReading

#: Cycles written per scenario; small segments force several rotations.
N_CYCLES = 40
SEGMENT_MAX = 384


def _run_until_crash(directory, crash_offset, sync_every):
    """Drive a WAL to the crash, returning the last *synced* cycle."""
    last_synced = -1
    try:
        # A small enough offset kills the very first header write, so
        # even construction may crash — exactly like a real power cut
        # during log creation.
        wal = CrashingWAL(
            directory,
            CrashPoint(at_byte=crash_offset),
            segment_max_bytes=SEGMENT_MAX,
        )
        for t in range(N_CYCLES):
            wal.append_cycle(t, {"c1": float(t), "c2": t * 0.25})
            if (t + 1) % sync_every == 0:
                wal.sync()
                last_synced = t
        wal.sync()
        last_synced = N_CYCLES - 1
        wal.close()
    except SimulatedCrash:
        pass
    return last_synced


class TestCrashOffsetSweep:
    def test_stream_fits_the_swept_range(self, tmp_path):
        # A crash offset at the top of the swept range must not fire: the
        # sweep then reaches every byte of the 40-cycle stream.
        assert _run_until_crash(tmp_path, 6000, sync_every=1) == N_CYCLES - 1

    @given(
        crash_offset=st.integers(min_value=0, max_value=6000),
        sync_every=st.sampled_from([1, 3, 7]),
    )
    @settings(max_examples=60, deadline=None)
    def test_recovery_is_prefix_consistent(
        self, tmp_path_factory, crash_offset, sync_every
    ):
        directory = tmp_path_factory.mktemp("wal")
        last_synced = _run_until_crash(directory, crash_offset, sync_every)

        replay = replay_wal(directory)
        cycles = [r.cycle for r in replay.cycles()]

        # 1. What survives is a contiguous prefix starting at 0.
        assert cycles == list(range(len(cycles)))
        # 2. Everything acknowledged by an fsync survives: at most the
        #    unsynced tail is lost.
        assert len(cycles) - 1 >= last_synced
        # 3. Re-opening repairs the tail and accepts appends again.
        with WriteAheadLog(directory, segment_max_bytes=SEGMENT_MAX) as wal:
            wal.append_cycle(len(cycles), {"c1": -0.0})
            wal.sync()
        healed = replay_wal(directory)
        assert not healed.torn_tail
        assert [r.cycle for r in healed.cycles()] == list(
            range(len(cycles) + 1)
        )

    @given(before_record=st.integers(min_value=0, max_value=N_CYCLES))
    @settings(max_examples=20, deadline=None)
    def test_record_boundary_crashes_never_tear(
        self, tmp_path_factory, before_record
    ):
        directory = tmp_path_factory.mktemp("wal")
        wal = CrashingWAL(
            directory,
            CrashPoint(before_record=before_record),
            segment_max_bytes=SEGMENT_MAX,
        )
        with pytest.raises(SimulatedCrash):
            for t in range(N_CYCLES + 1):
                wal.append_cycle(t, {"c1": float(t)})
                wal.sync()
        replay = replay_wal(directory)
        assert not replay.torn_tail
        assert [r.cycle for r in replay.cycles()] == list(
            range(before_record)
        )


# ----------------------------------------------------------------------
# Frame codec round trip
# ----------------------------------------------------------------------

_INT64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)
#: Everything a float can be, signed zeros and subnormals included.
_FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 5e-324, -2.2250738585072014e-308]),
)
#: Values that do not parse as a float; the log stores them as NaN.
_GARBAGE = st.sampled_from([None, "garbage", "", object(), [1.0], b"\xff"])
_READING = st.one_of(
    _FLOATS,
    _GARBAGE,
    st.builds(
        MeterReading,
        value=st.one_of(_FLOATS, _GARBAGE),
        slot=st.one_of(st.none(), _INT64),
        fold=st.booleans(),
    ),
)
_IDS = st.text(
    alphabet=st.one_of(
        st.characters(), st.sampled_from(["\x00", "\u00e9", "\U0001f50c"])
    ),
    max_size=6,
)


def _bits(value):
    return struct.pack("<d", value)


def _same_float(got, want):
    if isinstance(want, float):
        return isinstance(got, float) and _bits(got) == _bits(want)
    return isinstance(got, float) and math.isnan(got)  # unparseable


def _expected(value):
    """What replay must return for one logged cycle value."""
    if isinstance(value, MeterReading):
        if value.slot is not None or value.fold:
            return MeterReading(value.value, value.slot, value.fold)
        value = value.value
    return value if isinstance(value, float) else None


class TestFrameCodecRoundTrip:
    @given(readings=st.dictionaries(_IDS, _READING, max_size=12))
    @example(readings={})
    @example(readings={"z": 1.0, "\x00a": -0.0, "é": float("nan"), "a": 2.0})
    @settings(max_examples=150, deadline=None)
    def test_cycle_frame(self, tmp_path_factory, readings):
        directory = tmp_path_factory.mktemp("wal")
        with WriteAheadLog(directory) as wal:
            wal.append_cycle(7, readings)
            wal.append_cycle(8, readings)  # a repeated roster
            wal.sync()
        replay = replay_wal(directory)
        assert [r.cycle for r in replay.cycles()] == [7, 8]
        for record in replay.cycles():
            # The key order is the mapping's own, not a sorted one.
            assert list(record.readings) == list(readings)
            for cid, value in readings.items():
                got, want = record.readings[cid], _expected(value)
                if isinstance(want, MeterReading):
                    assert isinstance(got, MeterReading)
                    assert (got.slot, got.fold) == (want.slot, bool(want.fold))
                    assert _same_float(got.value, _expected(want.value))
                else:
                    assert _same_float(got, want)

    @given(
        batch=st.lists(st.tuples(_IDS, _INT64, _FLOATS), max_size=12),
        index=_INT64,
    )
    @example(batch=[], index=0)
    @settings(max_examples=150, deadline=None)
    def test_delivery_frame(self, tmp_path_factory, batch, index):
        directory = tmp_path_factory.mktemp("wal")
        with WriteAheadLog(directory) as wal:
            wal.append_delivery(index, iter(batch))
            wal.append_finish(0)
            wal.sync()
        replay = replay_wal(directory)
        (record,) = replay.deliveries()
        assert record.cycle == index
        assert replay.finished
        assert len(record.deliveries) == len(batch)
        for (cid, slot, value), (want_cid, want_slot, want_value) in zip(
            record.deliveries, batch
        ):
            assert (cid, slot) == (want_cid, want_slot)
            assert _same_float(value, want_value)


# ----------------------------------------------------------------------
# Crash sweep over stamped cycles and delivery batches
# ----------------------------------------------------------------------

#: Byte offsets swept by the mixed-stream property (the whole stream).
MIXED_MAX_OFFSET = 7000


def _mixed_cycle(t):
    return {
        "c1": MeterReading(float(t), slot=t, fold=t % 3 == 0),
        "c\x00é": t * 0.25,
        "bad": "garbage" if t % 2 else MeterReading(-1.0, fold=True),
    }


def _mixed_batch(t):
    return [("c1", t, float(t)), ("c\x00é", t - 1, -0.0)][: 1 + t % 2]


def _run_mixed_until_crash(directory, crash_offset, sync_every):
    """Alternate stamped cycles and delivery batches up to the crash."""
    last_synced = -1
    try:
        wal = CrashingWAL(
            directory,
            CrashPoint(at_byte=crash_offset),
            segment_max_bytes=SEGMENT_MAX,
        )
        for t in range(N_CYCLES):
            wal.append_cycle(t, _mixed_cycle(t))
            wal.append_delivery(t, _mixed_batch(t))
            if (t + 1) % sync_every == 0:
                wal.sync()
                last_synced = t
        wal.sync()
        last_synced = N_CYCLES - 1
        wal.close()
    except SimulatedCrash:
        pass
    return last_synced


class TestMixedCrashOffsetSweep:
    def test_stream_fits_the_swept_range(self, tmp_path):
        assert (
            _run_mixed_until_crash(tmp_path, MIXED_MAX_OFFSET, sync_every=1)
            == N_CYCLES - 1
        )

    @given(
        crash_offset=st.integers(min_value=0, max_value=MIXED_MAX_OFFSET),
        sync_every=st.sampled_from([1, 3, 7]),
    )
    @settings(max_examples=60, deadline=None)
    def test_recovery_is_prefix_consistent(
        self, tmp_path_factory, crash_offset, sync_every
    ):
        directory = tmp_path_factory.mktemp("wal")
        last_synced = _run_mixed_until_crash(
            directory, crash_offset, sync_every
        )

        replay = replay_wal(directory)
        cycles = list(replay.cycles())
        deliveries = list(replay.deliveries())
        # Records interleave cycle t, delivery t: the survivors are a
        # contiguous prefix of that stream, with every synced step in it.
        assert [r.cycle for r in cycles] == list(range(len(cycles)))
        assert [r.cycle for r in deliveries] == list(range(len(deliveries)))
        assert len(cycles) - 1 <= len(deliveries) <= len(cycles)
        assert len(deliveries) - 1 >= last_synced
        for record in cycles:
            want = _mixed_cycle(record.cycle)
            assert list(record.readings) == list(want)
            assert record.readings["c1"] == want["c1"]
            assert record.readings["c\x00é"] == want["c\x00é"]
            if record.cycle % 2:
                assert math.isnan(record.readings["bad"])
            else:
                assert record.readings["bad"] == want["bad"]
        for record in deliveries:
            assert list(record.deliveries) == _mixed_batch(record.cycle)
        with WriteAheadLog(directory, segment_max_bytes=SEGMENT_MAX) as wal:
            wal.append_cycle(len(cycles), _mixed_cycle(len(cycles)))
            wal.sync()
        healed = replay_wal(directory)
        assert not healed.torn_tail
        assert [r.cycle for r in healed.cycles()] == list(
            range(len(cycles) + 1)
        )
