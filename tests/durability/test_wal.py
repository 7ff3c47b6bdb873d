"""WAL format, rotation, torn-tail handling, repair, and compaction."""

import os

import pytest

from repro.durability import wal as wal_module
from repro.durability.wal import (
    WAL_VERSION,
    WALRecord,
    WriteAheadLog,
    list_segments,
    replay_wal,
)
from repro.errors import ConfigurationError, WALCorruptionError, WALError
from repro.observability.metrics import MetricsRegistry
from repro.quarantine.firewall import MeterReading
from repro.storage.io import StorageIO


def _readings(t):
    return {"c1": float(t), "c2": float(t) * 0.5}


class TestRoundTrip:
    def test_append_sync_replay(self, tmp_path):
        wal_dir = tmp_path / "wal"
        with WriteAheadLog(wal_dir) as wal:
            for t in range(10):
                wal.append_cycle(t, _readings(t))
            wal.sync()
        replay = replay_wal(wal_dir)
        cycles = list(replay.cycles())
        assert [r.cycle for r in cycles] == list(range(10))
        assert cycles[3].readings == _readings(3)
        assert not replay.torn_tail

    def test_stamped_readings_survive_replay(self, tmp_path):
        with WriteAheadLog(tmp_path / "wal") as wal:
            wal.append_cycle(
                0,
                {
                    "plain": 2.5,
                    "stamped": MeterReading(1.0, slot=7, fold=True),
                },
            )
            wal.sync()
        (record,) = replay_wal(tmp_path / "wal").cycles()
        assert record.readings["plain"] == 2.5
        assert record.readings["stamped"] == MeterReading(
            1.0, slot=7, fold=True
        )

    def test_non_finite_values_roundtrip(self, tmp_path):
        with WriteAheadLog(tmp_path / "wal") as wal:
            wal.append_cycle(0, {"bad": float("nan"), "inf": float("inf")})
            wal.sync()
        (record,) = replay_wal(tmp_path / "wal").cycles()
        assert record.readings["bad"] != record.readings["bad"]  # NaN
        assert record.readings["inf"] == float("inf")

    def test_mark_records_are_not_cycles(self, tmp_path):
        with WriteAheadLog(tmp_path / "wal") as wal:
            wal.append_cycle(0, _readings(0))
            wal.mark_checkpoint(1)
            wal.sync()
        replay = replay_wal(tmp_path / "wal")
        assert len(replay.records) == 2
        assert len(list(replay.cycles())) == 1
        assert replay.last_cycle == 0

    def test_empty_directory_replays_empty(self, tmp_path):
        replay = replay_wal(tmp_path / "missing")
        assert replay.records == ()
        assert replay.segments == 0
        assert not replay.torn_tail

    def test_sync_tracks_durable_cycle(self, tmp_path):
        with WriteAheadLog(tmp_path / "wal") as wal:
            wal.append_cycle(0, _readings(0))
            assert wal.last_synced_cycle == -1
            wal.sync()
            assert wal.last_synced_cycle == 0

    def test_closed_wal_rejects_writes(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal")
        wal.close()
        with pytest.raises(WALError):
            wal.append_cycle(0, _readings(0))
        with pytest.raises(WALError):
            wal.sync()

    def test_segment_max_bytes_validated(self, tmp_path):
        with pytest.raises(ConfigurationError):
            WriteAheadLog(tmp_path / "wal", segment_max_bytes=8)


class TestRotation:
    def test_small_segments_rotate(self, tmp_path):
        with WriteAheadLog(tmp_path / "wal", segment_max_bytes=256) as wal:
            for t in range(50):
                wal.append_cycle(t, _readings(t))
            wal.sync()
            assert wal.rotations > 0
        segments = list_segments(tmp_path / "wal")
        assert len(segments) > 1
        replay = replay_wal(tmp_path / "wal")
        assert [r.cycle for r in replay.cycles()] == list(range(50))

    def test_reopen_continues_in_fresh_segment(self, tmp_path):
        with WriteAheadLog(tmp_path / "wal") as wal:
            wal.append_cycle(0, _readings(0))
            wal.sync()
        before = list_segments(tmp_path / "wal")
        with WriteAheadLog(tmp_path / "wal") as wal:
            wal.append_cycle(1, _readings(1))
            wal.sync()
        after = list_segments(tmp_path / "wal")
        assert len(after) == len(before) + 1
        assert [r.cycle for r in replay_wal(tmp_path / "wal").cycles()] == [
            0,
            1,
        ]

    def test_metrics_counters(self, tmp_path):
        registry = MetricsRegistry()
        with WriteAheadLog(
            tmp_path / "wal", segment_max_bytes=256, metrics=registry
        ) as wal:
            for t in range(30):
                wal.append_cycle(t, _readings(t))
            wal.sync()
        snapshot = registry.snapshot()
        names = {family["name"] for family in snapshot["families"]}
        assert "fdeta_wal_appends_total" in names
        assert "fdeta_wal_syncs_total" in names
        assert "fdeta_wal_rotations_total" in names


class _CountingIO(StorageIO):
    """The real filesystem, counting fsyncs."""

    def __init__(self):
        self.fsyncs = 0

    def fsync(self, handle, *, site):
        self.fsyncs += 1
        super().fsync(handle, site=site)


class TestEmptySync:
    def test_second_sync_without_a_write_does_not_fsync(self, tmp_path):
        io = _CountingIO()
        with WriteAheadLog(tmp_path / "wal", io=io) as wal:
            wal.append_cycle(0, _readings(0))
            wal.sync()
            assert (io.fsyncs, wal.syncs) == (1, 1)
            wal.sync()
            assert (io.fsyncs, wal.syncs) == (1, 1)
            assert wal.last_synced_cycle == 0
            wal.append_cycle(1, _readings(1))
            wal.sync()
            assert (io.fsyncs, wal.syncs) == (2, 2)
        assert io.fsyncs == 2  # close() had nothing left to flush

    def test_rotation_after_a_synced_append_fsyncs_once(self, tmp_path):
        io = _CountingIO()
        with WriteAheadLog(
            tmp_path / "wal", segment_max_bytes=256, io=io
        ) as wal:
            calls = []
            real_sync = wal.sync
            wal.sync = lambda: calls.append(1) or real_sync()
            t = 0
            while wal.rotations == 0:
                wal.append_cycle(t, _readings(t))
                wal.sync()
                t += 1
            # Every append was synced on its own, so the rotation did not
            # sync again: one sync and one fsync per append (the last
            # one also covers the new segment's header).
            assert len(calls) == io.fsyncs == wal.syncs == t
        assert io.fsyncs == t
        assert [r.cycle for r in replay_wal(tmp_path / "wal").cycles()] == (
            list(range(t))
        )

    def test_close_fsyncs_a_fresh_segment_header(self, tmp_path):
        io = _CountingIO()
        WriteAheadLog(tmp_path / "wal", io=io).close()
        assert io.fsyncs == 1


class TestTornTail:
    def test_truncated_record_is_torn_not_corrupt(self, tmp_path):
        with WriteAheadLog(tmp_path / "wal") as wal:
            for t in range(5):
                wal.append_cycle(t, _readings(t))
            wal.sync()
        (segment,) = list_segments(tmp_path / "wal")
        size = os.path.getsize(segment)
        with open(segment, "r+b") as handle:
            handle.truncate(size - 3)
        replay = replay_wal(tmp_path / "wal")
        assert replay.torn_tail
        assert [r.cycle for r in replay.cycles()] == [0, 1, 2, 3]

    def test_flipped_byte_in_tail_fails_crc(self, tmp_path):
        with WriteAheadLog(tmp_path / "wal") as wal:
            for t in range(3):
                wal.append_cycle(t, _readings(t))
            wal.sync()
        (segment,) = list_segments(tmp_path / "wal")
        with open(segment, "r+b") as handle:
            handle.seek(-2, os.SEEK_END)
            byte = handle.read(1)
            handle.seek(-2, os.SEEK_END)
            handle.write(bytes([byte[0] ^ 0xFF]))
        replay = replay_wal(tmp_path / "wal")
        assert replay.torn_tail
        assert [r.cycle for r in replay.cycles()] == [0, 1]

    def test_torn_non_final_segment_raises(self, tmp_path):
        with WriteAheadLog(tmp_path / "wal", segment_max_bytes=256) as wal:
            for t in range(40):
                wal.append_cycle(t, _readings(t))
            wal.sync()
        segments = list_segments(tmp_path / "wal")
        assert len(segments) >= 2
        with open(segments[0], "r+b") as handle:
            handle.truncate(os.path.getsize(segments[0]) - 3)
        with pytest.raises(WALCorruptionError):
            replay_wal(tmp_path / "wal")

    def test_bad_magic_raises(self, tmp_path):
        with WriteAheadLog(tmp_path / "wal") as wal:
            wal.append_cycle(0, _readings(0))
            wal.sync()
        (segment,) = list_segments(tmp_path / "wal")
        with open(segment, "r+b") as handle:
            handle.write(b"NOTAWAL!")
        with pytest.raises(WALCorruptionError):
            replay_wal(tmp_path / "wal")

    def test_wrong_version_raises(self, tmp_path):
        with WriteAheadLog(tmp_path / "wal") as wal:
            wal.append_cycle(0, _readings(0))
            wal.sync()
        (segment,) = list_segments(tmp_path / "wal")
        with open(segment, "r+b") as handle:
            handle.seek(8)
            handle.write((WAL_VERSION + 1).to_bytes(2, "little"))
        with pytest.raises(WALCorruptionError):
            replay_wal(tmp_path / "wal")

    def test_reopen_repairs_torn_tail(self, tmp_path):
        with WriteAheadLog(tmp_path / "wal") as wal:
            for t in range(5):
                wal.append_cycle(t, _readings(t))
            wal.sync()
        (segment,) = list_segments(tmp_path / "wal")
        with open(segment, "r+b") as handle:
            handle.truncate(os.path.getsize(segment) - 1)
        # Re-opening truncates the unacknowledged partial record ...
        with WriteAheadLog(tmp_path / "wal") as wal:
            wal.append_cycle(4, _readings(4))
            wal.sync()
        # ... so a full replay is clean again.
        replay = replay_wal(tmp_path / "wal")
        assert not replay.torn_tail
        assert [r.cycle for r in replay.cycles()] == [0, 1, 2, 3, 4]


class TestCompaction:
    def _multi_segment_wal(self, directory):
        wal = WriteAheadLog(directory, segment_max_bytes=256)
        for t in range(60):
            wal.append_cycle(t, _readings(t))
        wal.sync()
        return wal

    def test_compact_removes_covered_segments(self, tmp_path):
        wal = self._multi_segment_wal(tmp_path / "wal")
        before = wal.segments()
        assert len(before) > 2
        removed = wal.compact(up_to_cycle=40)
        assert removed > 0
        survivors = wal.segments()
        assert len(survivors) == len(before) - removed
        # Every surviving record at/past the horizon is still there.
        replay = replay_wal(tmp_path / "wal")
        cycles = [r.cycle for r in replay.cycles()]
        assert all(t in cycles for t in range(40, 60))
        wal.close()

    def test_compact_never_touches_active_segment(self, tmp_path):
        wal = self._multi_segment_wal(tmp_path / "wal")
        wal.compact(up_to_cycle=10_000)
        assert wal.segments() == [wal.active_segment]
        wal.append_cycle(60, _readings(60))
        wal.sync()
        wal.close()
        assert [r.cycle for r in replay_wal(tmp_path / "wal").cycles()][
            -1
        ] == 60

    def test_compact_stops_at_first_uncovered(self, tmp_path):
        wal = self._multi_segment_wal(tmp_path / "wal")
        removed_low = wal.compact(up_to_cycle=1)
        assert removed_low == 0
        wal.close()

    def test_compact_reads_only_frame_headers(self, tmp_path, monkeypatch):
        wal = self._multi_segment_wal(tmp_path / "wal")
        sealed = wal.segments()[:-1]
        covered = 0
        for path in sealed:
            records, _valid, _torn = wal_module._scan_segment(path)
            if any(r.cycle >= 40 for r in records):
                break
            covered += 1
        assert 0 < covered < len(sealed)

        def _refuse(body):
            raise AssertionError("compaction decoded a payload")

        monkeypatch.setattr(wal_module, "_decode_frame", _refuse)
        assert wal.compact(up_to_cycle=40) == covered
        assert wal.compact(up_to_cycle=10_000) == len(sealed) - covered
        assert wal.segments() == [wal.active_segment]
        wal.close()

    def test_corrupt_sealed_segment_is_kept(self, tmp_path):
        wal = self._multi_segment_wal(tmp_path / "wal")
        first, second = wal.segments()[:2]
        # Flip a byte in the last frame's value column: the frames before
        # it are still valid, and every cycle in the segment is covered.
        with open(second, "r+b") as handle:
            handle.seek(-2, os.SEEK_END)
            byte = handle.read(1)
            handle.seek(-2, os.SEEK_END)
            handle.write(bytes([byte[0] ^ 0xFF]))
        assert wal.compact(up_to_cycle=10_000) == 1
        assert not os.path.exists(first)
        assert wal.segments()[0] == second
        wal.close()


class TestWALRecord:
    def test_record_defaults(self):
        record = WALRecord(kind="mark", cycle=7)
        assert record.readings is None
