"""Checksummed, segmented write-ahead log for ingested readings.

The monitoring service checkpoints once per completed week (336 polling
cycles); a crash between checkpoints would silently lose up to a week of
readings — exactly the blind window an attacker wants.  The WAL closes
it: every polling cycle is appended (and fsynced) *before* it is
ingested, so a restarted process replays the tail since the last
checkpoint and resumes with nothing lost but the unsynced suffix.

File format
-----------

A WAL is a directory of numbered segment files ``wal-00000001.seg``.
Each segment starts with an 18-byte header::

    magic   8 bytes  b"FDWALSEG"
    version u16      format version (currently 2)
    base    u64      cycle index the log expected next when the
                     segment was opened (diagnostic aid)

followed by length-prefixed, CRC-checked frames::

    length  u32      body byte count
    crc32   u32      CRC-32 of the body
    body             fixed frame header, then the frame's columns

Every body opens with the same 21-byte little-endian header::

    kind    u8       1 cycle, 2 mark, 3 delivery, 4 finish
    cycle   i64      cycle index (delivery index for delivery/finish)
    count   u32      number of entries
    blob    u32      byte count of the consumer-id blob
    stamps  u32      number of stamp entries (cycle frames only)

and its columns follow, all little-endian:

* ``cycle`` — one polling cycle of readings, the raw pre-firewall
  mapping: ``count`` u32 consumer-id lengths (in characters), the ids
  concatenated as one UTF-8 blob, ``count`` float64 values in the
  mapping's own key order, then the stamp section: ``stamps`` u32
  entry indices, ``stamps`` i64 slots and ``stamps`` u8 flags (bit 0:
  the slot is set, bit 1: ``fold``) for the :class:`MeterReading`
  values that carry a slot or fold.  Unparseable values are logged as
  NaN; the firewall quarantines them as ``non_finite`` on both the live
  and the replayed path.
* ``delivery`` — one event-time delivery batch of stamped readings: the
  id lengths and blob as above, ``count`` i64 slots and ``count``
  float64 values.  The header's index is the processing-time delivery
  counter and each slot is its reading's event time, so replay
  reproduces the exact watermark decisions of the live run.
* ``mark`` (a checkpoint boundary, written so compaction evidence
  survives in the log itself) and ``finish`` (the event-time
  end-of-run flush, logged so replay drains the reorder buffer at the
  same point the live run did) are header-only.

The header fixes the body length, so a frame whose length disagrees
with its header is invalid like one whose CRC fails.  Every frame
stands alone: it carries its own ids and never refers to an earlier
frame, so losing a torn or rolled-back append cannot orphan a later
one.

Crash safety
------------

Appends are buffered; :meth:`WriteAheadLog.sync` flushes and fsyncs —
records written before the last ``sync`` survive any crash.  A crash
mid-append leaves a *torn tail*: a partial header or a record whose CRC
fails.  Replay (:func:`replay_wal`) accepts a torn tail **only at the
end of the final segment** — the one place a crash can produce one —
and surfaces it as ``torn_tail=True``; an invalid frame anywhere else
is disk corruption and raises
:class:`~repro.errors.WALCorruptionError`.  Re-opening a directory for
append truncates the torn tail first (the partial record was never
acknowledged, so discarding it is correct), then continues in a fresh
segment.

Segments whose every record is covered by a newer service checkpoint
are deleted by :meth:`WriteAheadLog.compact`, bounding disk usage.
Compaction reads only frame headers (length, CRC, kind and cycle); it
never decodes a payload.
"""

from __future__ import annotations

import os
import struct
import zlib
from dataclasses import dataclass
from typing import (
    IO,
    TYPE_CHECKING,
    Collection,
    Iterable,
    Iterator,
    Mapping,
)

import numpy as np

from repro.errors import (
    ConfigurationError,
    StorageError,
    WALCorruptionError,
    WALError,
)
from repro.quarantine.firewall import MeterReading
from repro.resilience.retry import RetryPolicy
from repro.storage.io import (
    StorageIO,
    classify_storage_error,
    current_io,
    retry_io,
)

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.observability.metrics import MetricsRegistry

__all__ = [
    "WAL_VERSION",
    "WALRecord",
    "WALReplay",
    "WriteAheadLog",
    "replay_wal",
]

_MAGIC = b"FDWALSEG"
_HEADER = struct.Struct("<8sHQ")
_RECORD_HEADER = struct.Struct("<II")

#: Bump when the segment layout changes; old segments are rejected.
WAL_VERSION = 2

#: Fixed header opening every frame body: kind code, cycle, entry
#: count, id-blob byte count, stamp count.
_FRAME = struct.Struct("<BqIII")
_CYCLE, _MARK, _DELIVERY, _FINISH = 1, 2, 3, 4
_KIND_CODES = {
    "cycle": _CYCLE, "mark": _MARK, "delivery": _DELIVERY, "finish": _FINISH
}
_KIND_NAMES = {code: kind for kind, code in _KIND_CODES.items()}
_U8, _U32 = np.dtype("u1"), np.dtype("<u4")
_I64, _F64 = np.dtype("<i8"), np.dtype("<f8")
#: Stamp flag bits.
_HAS_SLOT, _FOLD = 1, 2

_SEGMENT_PREFIX = "wal-"
_SEGMENT_SUFFIX = ".seg"


def _segment_name(seq: int) -> str:
    return f"{_SEGMENT_PREFIX}{seq:08d}{_SEGMENT_SUFFIX}"


def _segment_seq(name: str) -> int | None:
    if not (
        name.startswith(_SEGMENT_PREFIX) and name.endswith(_SEGMENT_SUFFIX)
    ):
        return None
    body = name[len(_SEGMENT_PREFIX) : -len(_SEGMENT_SUFFIX)]
    return int(body) if body.isdigit() else None


def list_segments(directory: str | os.PathLike) -> list[str]:
    """Absolute paths of the directory's segments, in write order."""
    directory = os.fspath(directory)
    found = []
    try:
        names = os.listdir(directory)
    except FileNotFoundError:
        return []
    for name in names:
        seq = _segment_seq(name)
        if seq is not None:
            found.append((seq, os.path.join(directory, name)))
    return [path for _, path in sorted(found)]


@dataclass(frozen=True)
class WALRecord:
    """One decoded WAL record.

    ``cycle`` is the polling-cycle index for ``cycle``/``mark`` records
    and the processing-time delivery index for ``delivery``/``finish``
    records.  ``deliveries`` carries a delivery batch's stamped readings
    as ``(consumer_id, slot, value)`` triples.
    """

    kind: str
    cycle: int
    readings: dict[str, float | MeterReading] | None = None
    deliveries: tuple[tuple[str, int, float], ...] | None = None


@dataclass(frozen=True)
class WALReplay:
    """Everything a replay recovered from a WAL directory."""

    records: tuple[WALRecord, ...]
    segments: int
    torn_tail: bool

    def cycles(self) -> Iterator[WALRecord]:
        """The cycle records, in append order."""
        return (r for r in self.records if r.kind == "cycle")

    def deliveries(self) -> Iterator[WALRecord]:
        """The event-time delivery records, in append order."""
        return (r for r in self.records if r.kind == "delivery")

    @property
    def finished(self) -> bool:
        """Whether the event-time end-of-run flush was logged."""
        return any(r.kind == "finish" for r in self.records)

    @property
    def last_cycle(self) -> int:
        """Highest cycle index recovered (``-1`` when none)."""
        last = -1
        for record in self.records:
            if record.kind == "cycle" and record.cycle > last:
                last = record.cycle
        return last


def _coerce(value: object) -> float:
    try:
        return float(value)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        # Unparseable garbage is logged as NaN; the firewall quarantines
        # it as non_finite on both the live and the replayed path.
        return float("nan")


def _body_size(code: int, count: int, blob: int, stamps: int) -> int:
    """The body length a frame header implies (``-1``: invalid header)."""
    if code == _CYCLE:  # id length u32, value f64; stamp u32 + i64 + u8
        return _FRAME.size + count * 12 + blob + stamps * 13
    if code == _DELIVERY and stamps == 0:  # id length, slot i64, value
        return _FRAME.size + count * 20 + blob
    if code in (_MARK, _FINISH) and count == blob == stamps == 0:
        return _FRAME.size
    return -1


def _key_section(keys: Collection) -> tuple[int, bytes]:
    """Encode consumer ids, in iteration order: ``(blob byte count,
    lengths + blob)``."""
    try:
        text = "".join(keys)
    except TypeError:
        keys = [str(key) for key in keys]
        text = "".join(keys)
    blob = text.encode("utf-8", "surrogatepass")
    lengths = np.fromiter(map(len, keys), _U32, len(keys))
    return len(blob), lengths.tobytes() + blob


def _cycle_columns(values: Iterable, count: int) -> tuple[bytes, int]:
    """A cycle's value column plus stamp section, and the stamp count.

    ``values`` is iterated again when the float fast path fails, so it
    must be re-iterable (a mapping's values view).
    """
    try:
        return np.fromiter(values, _F64, count).tobytes(), 0
    except (TypeError, ValueError):
        pass
    column = np.empty(count, _F64)
    index, slots, flags = [], [], []
    for i, value in enumerate(values):
        if isinstance(value, MeterReading):
            if value.slot is not None or value.fold:
                index.append(i)
                slots.append(0 if value.slot is None else value.slot)
                flags.append(
                    (_HAS_SLOT if value.slot is not None else 0)
                    | (_FOLD if value.fold else 0)
                )
            value = value.value
        column[i] = _coerce(value)
    return (
        column.tobytes()
        + np.array(index, _U32).tobytes()
        + np.array(slots, _I64).tobytes()
        + np.array(flags, _U8).tobytes()
    ), len(index)


def _decode_frame(body: bytes) -> WALRecord:
    """Decode one CRC-checked frame body into its record."""
    code, cycle, count, blob, stamps = _FRAME.unpack_from(body)
    kind = _KIND_NAMES[code]
    if code in (_MARK, _FINISH):
        return WALRecord(kind=kind, cycle=cycle)
    offset = _FRAME.size
    lengths = np.frombuffer(body, _U32, count, offset)
    offset += 4 * count
    text = body[offset : offset + blob].decode("utf-8", "surrogatepass")
    offset += blob
    bounds = [0, *np.cumsum(lengths, dtype=np.int64).tolist()]
    if bounds[-1] != len(text):
        raise ValueError("consumer-id lengths disagree with the id blob")
    keys = list(map(text.__getitem__, map(slice, bounds, bounds[1:])))
    if code == _DELIVERY:
        slots = np.frombuffer(body, _I64, count, offset).tolist()
        values = np.frombuffer(body, _F64, count, offset + 8 * count)
        return WALRecord(
            kind=kind,
            cycle=cycle,
            deliveries=tuple(zip(keys, slots, values.tolist())),
        )
    values = np.frombuffer(body, _F64, count, offset).tolist()
    readings: dict[str, float | MeterReading] = dict(zip(keys, values))
    offset += 8 * count
    index = np.frombuffer(body, _U32, stamps, offset).tolist()
    slots = np.frombuffer(body, _I64, stamps, offset + 4 * stamps).tolist()
    flags = np.frombuffer(body, _U8, stamps, offset + 12 * stamps).tolist()
    for i, slot, flag in zip(index, slots, flags):
        readings[keys[i]] = MeterReading(
            value=values[i],
            slot=slot if flag & _HAS_SLOT else None,
            fold=bool(flag & _FOLD),
        )
    return WALRecord(kind=kind, cycle=cycle, readings=readings)


def _walk_segment(
    path: str,
) -> tuple[bytes, list[tuple[int, int, int]], int, bool]:
    """Walk one segment's frame headers without decoding any payload.

    Returns ``(data, frames, valid_bytes, torn)``: the file's bytes,
    ``(body_start, body_end, cycle)`` for each valid frame, the offset
    up to which the file is well-formed, and whether anything (partial
    header, short body, header/length mismatch, CRC mismatch) follows
    it.  Zero-byte files are valid and empty — they are what repairing
    a segment torn inside its *file* header leaves.
    """
    with open(path, "rb") as handle:
        data = handle.read()
    if len(data) == 0:
        return data, [], 0, False
    if len(data) < _HEADER.size:
        return data, [], 0, True
    magic, version, _base = _HEADER.unpack_from(data, 0)
    if magic != _MAGIC:
        raise WALCorruptionError(
            f"{path!r} is not a WAL segment (bad magic {magic!r})"
        )
    if version != WAL_VERSION:
        raise WALCorruptionError(
            f"{path!r} has WAL version {version}, expected {WAL_VERSION}"
        )
    view = memoryview(data)
    frames: list[tuple[int, int, int]] = []
    offset = _HEADER.size
    while offset < len(data):
        start = offset + _RECORD_HEADER.size
        if start + _FRAME.size > len(data):
            return data, frames, offset, True
        length, crc = _RECORD_HEADER.unpack_from(data, offset)
        code, cycle, count, blob, stamps = _FRAME.unpack_from(data, start)
        end = start + length
        if (
            _body_size(code, count, blob, stamps) != length
            or end > len(data)
            or zlib.crc32(view[start:end]) != crc
        ):
            return data, frames, offset, True
        frames.append((start, end, cycle))
        offset = end
    return data, frames, offset, False


def _scan_segment(path: str) -> tuple[list[WALRecord], int, bool]:
    """Decode one segment's valid prefix.

    Returns ``(records, valid_bytes, torn)`` as :func:`_walk_segment`
    does; a frame that passes its CRC but fails to decode ends the
    valid prefix too.
    """
    data, frames, valid_bytes, torn = _walk_segment(path)
    records: list[WALRecord] = []
    for start, end, _cycle in frames:
        try:
            records.append(_decode_frame(data[start:end]))
        except (ValueError, KeyError, IndexError):
            return records, start - _RECORD_HEADER.size, True
    return records, valid_bytes, torn


def replay_wal(directory: str | os.PathLike) -> WALReplay:
    """Decode every record in a WAL directory, tolerating a torn tail.

    A torn tail is accepted only at the end of the *last* segment (the
    only place a crash can tear); a torn or unreadable earlier segment
    raises :class:`~repro.errors.WALCorruptionError`.
    """
    segments = list_segments(directory)
    records: list[WALRecord] = []
    torn_tail = False
    for i, path in enumerate(segments):
        final = i == len(segments) - 1
        if os.path.getsize(path) == 0 and not final:
            # A zero-length *final* segment is a legitimate crash
            # artifact (died between creating the file and syncing its
            # header); a zero-length segment followed by newer ones can
            # only mean external truncation — its records are gone.
            raise WALCorruptionError(
                f"WAL segment {path!r} is zero-length but is not the "
                f"final segment; its records were lost to truncation "
                f"or at-rest corruption"
            )
        segment_records, valid_bytes, torn = _scan_segment(path)
        records.extend(segment_records)
        if torn:
            if not final:
                raise WALCorruptionError(
                    f"WAL segment {path!r} is corrupt at byte "
                    f"{valid_bytes} but is not the final segment"
                )
            torn_tail = True
    return WALReplay(
        records=tuple(records),
        segments=len(segments),
        torn_tail=torn_tail,
    )


class WriteAheadLog:
    """Append-only durable log of polling cycles.

    Parameters
    ----------
    directory:
        Where segments live; created if missing.  Re-opening a
        directory repairs any torn tail (truncating the unacknowledged
        partial record) and continues in a fresh segment.
    segment_max_bytes:
        Rotation threshold; a segment that has grown past it is sealed
        (synced + closed) and a new one opened.
    metrics:
        Optional registry receiving append/sync/rotation counters.
    io:
        The :class:`~repro.storage.io.StorageIO` implementation for
        every byte-level operation; defaults to the process-wide
        :func:`~repro.storage.io.current_io` (which a chaos harness may
        have replaced with a fault injector).
    retry:
        Bounded :class:`~repro.resilience.retry.RetryPolicy` for
        transient (``EIO``-class) append/sync failures.
    """

    def __init__(
        self,
        directory: str | os.PathLike,
        segment_max_bytes: int = 1 << 20,
        metrics: "MetricsRegistry | None" = None,
        io: StorageIO | None = None,
        retry: RetryPolicy | None = None,
    ) -> None:
        if segment_max_bytes < 256:
            raise ConfigurationError(
                f"segment_max_bytes must be >= 256, got {segment_max_bytes}"
            )
        self.directory = os.fspath(directory)
        self.segment_max_bytes = int(segment_max_bytes)
        self.metrics = metrics
        self._io = io if io is not None else current_io()
        self.retry = retry if retry is not None else RetryPolicy()
        os.makedirs(self.directory, exist_ok=True)
        existing = list_segments(self.directory)
        if existing:
            self._repair_tail(existing[-1])
            # A zero-length final segment (crash between creating the
            # file and persisting its header, or a header-torn repair)
            # holds no records; removing it keeps "zero-length and not
            # final" an unambiguous corruption signal for replay.
            if os.path.exists(existing[-1]) and (
                os.path.getsize(existing[-1]) == 0
            ):
                os.unlink(existing[-1])
        last_seq = 0
        for path in existing:
            seq = _segment_seq(os.path.basename(path))
            if seq is not None:
                last_seq = max(last_seq, seq)
        self._next_seq = last_seq + 1
        self._handle: IO[bytes] | None = None
        self._segment_bytes = 0
        self._closed = False
        self.records_appended = 0
        self.syncs = 0
        self.rotations = 0
        self.last_appended_cycle = -1
        #: Highest cycle index known durable (on disk past an fsync).
        self.last_synced_cycle = -1
        #: Bytes (segment headers included) written since the last fsync.
        self._dirty = False
        self._open_segment(base_cycle=0)

    # ------------------------------------------------------------------
    # Segment lifecycle
    # ------------------------------------------------------------------

    @staticmethod
    def _repair_tail(path: str) -> None:
        """Truncate a torn tail left by a crash mid-append."""
        _records, valid_bytes, torn = _scan_segment(path)
        if torn:
            with open(path, "r+b") as handle:
                handle.truncate(valid_bytes)

    def _open_segment(self, base_cycle: int) -> None:
        path = os.path.join(self.directory, _segment_name(self._next_seq))
        if os.path.exists(path):  # pragma: no cover - defensive
            raise WALError(f"segment {path!r} already exists")
        try:
            handle = self._io.open(path, "wb", site="wal.open")
        except OSError as exc:
            raise classify_storage_error(exc, "wal.open") from exc
        self._handle = handle
        self._segment_bytes = 0
        try:
            self._write(_HEADER.pack(_MAGIC, WAL_VERSION, max(base_cycle, 0)))
        except OSError as exc:
            # A torn or failed header must not leave a half-born segment
            # behind: later appends would land after the garbage and
            # poison replay with a bad-magic corruption.  Remove the
            # file entirely so a retry recreates it from scratch.
            self._handle = None
            try:
                handle.close()
            except OSError:  # pragma: no cover - device beyond help
                pass
            try:
                os.unlink(path)
            except OSError:  # pragma: no cover - device beyond help
                pass
            raise classify_storage_error(exc, "wal.open") from exc
        self._next_seq += 1

    def _rotate(self, base_cycle: int) -> None:
        if self._dirty:
            self.sync()
        assert self._handle is not None
        old = self._handle
        # Drop the sealed handle first: if closing or reopening fails,
        # the WAL is left handle-less (everything so far synced) and the
        # next append simply opens a fresh segment instead of writing
        # into a corpse.
        self._handle = None
        self._segment_bytes = 0
        try:
            old.close()
        except OSError as exc:
            raise classify_storage_error(exc, "wal.rotate") from exc
        self._open_segment(base_cycle)
        self.rotations += 1
        self._count("fdeta_wal_rotations_total", "WAL segment rotations.")

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------

    def _write(self, data: bytes) -> None:
        """Single byte-level write hook (overridden by the crash harness)."""
        assert self._handle is not None
        self._io.write(self._handle, data, site="wal.append")
        self._segment_bytes += len(data)
        self._dirty = True

    def _rollback_partial(self) -> None:
        """Discard a failed append's partial bytes so a retry lands clean.

        ``_segment_bytes`` only advances when :meth:`_write` returns, so
        it is always the last known-good end of the segment; truncating
        back to it removes whatever a torn or interrupted write left in
        the buffer or on disk.
        """
        if self._handle is None:
            return
        self._dirty = True  # the truncation below changes the file too
        try:
            self._handle.flush()
        except OSError:  # the flush of a doomed buffer may fail too
            pass
        try:
            self._handle.truncate(self._segment_bytes)
            self._handle.seek(self._segment_bytes)
        except OSError:  # pragma: no cover - device beyond help
            pass

    def _append(self, record: WALRecord) -> None:
        if self._closed:
            raise WALError("write-ahead log is closed")
        if self._handle is None:
            # A previous rotation or header write failed and rolled
            # back; everything already appended was synced before the
            # old segment closed, so just start a fresh segment here.
            self._open_segment(base_cycle=record.cycle)
        elif self._segment_bytes >= self.segment_max_bytes:
            self._rotate(base_cycle=record.cycle)
        data = self._frame(record)

        def _attempt() -> None:
            try:
                self._write(data)
            except OSError:
                self._rollback_partial()
                raise

        try:
            retry_io(
                _attempt,
                policy=self.retry,
                site="wal.append",
                metrics=self.metrics,
            )
        except StorageError:
            self._op_outcome("wal.append", "error")
            raise
        self._op_outcome("wal.append", "ok")
        self.records_appended += 1
        if record.cycle > self.last_appended_cycle:
            self.last_appended_cycle = record.cycle
        self._count("fdeta_wal_appends_total", "WAL records appended.")

    def _frame(self, record: WALRecord) -> bytes:
        """Encode one record as a self-contained, CRC-framed frame."""
        count = blob = stamps = 0
        columns = b""
        if record.readings is not None:
            count = len(record.readings)
            blob, section = _key_section(record.readings)
            values, stamps = _cycle_columns(record.readings.values(), count)
            columns = section + values
        elif record.deliveries:
            cids, slots, values = zip(*record.deliveries)
            count = len(cids)
            blob, section = _key_section(cids)
            columns = (
                section
                + np.fromiter(slots, _I64, count).tobytes()
                + np.fromiter(values, _F64, count).tobytes()
            )
        body = _FRAME.pack(
            _KIND_CODES[record.kind], record.cycle, count, blob, stamps
        ) + columns
        return _RECORD_HEADER.pack(len(body), zlib.crc32(body)) + body

    def append_cycle(
        self, cycle: int, readings: Mapping[str, float | MeterReading]
    ) -> None:
        """Log one polling cycle (must precede its ingestion)."""
        self._append(
            WALRecord(
                kind="cycle",
                cycle=int(cycle),
                readings=dict(readings),
            )
        )

    def mark_checkpoint(self, cycle: int) -> None:
        """Record that a service checkpoint covers cycles below ``cycle``."""
        self._append(WALRecord(kind="mark", cycle=int(cycle)))

    def append_delivery(
        self, index: int, deliveries: Iterable[tuple[str, int, float]]
    ) -> None:
        """Log one event-time delivery batch (must precede processing).

        ``index`` is the processing-time delivery counter; each element
        is a ``(consumer_id, slot, value)`` stamped reading.  Replaying
        the delivery records in order through a fresh event-time
        ingestor reproduces the live run's watermark decisions —
        buffering, releases, reconciliations, and revisions —
        bit-identically.
        """
        self._append(
            WALRecord(
                kind="delivery",
                cycle=int(index),
                deliveries=tuple(deliveries),
            )
        )

    def append_finish(self, index: int) -> None:
        """Log the event-time end-of-run flush decision."""
        self._append(WALRecord(kind="finish", cycle=int(index)))

    def sync(self) -> None:
        """Flush and fsync: everything appended so far becomes durable.

        A sync with nothing written since the last fsync is free: it
        neither fsyncs nor counts in :attr:`syncs`.  Raw
        :class:`OSError` never escapes: failures surface as the typed
        :class:`~repro.errors.StorageError` hierarchy, with transient
        (``EIO``-class) ones retried under :attr:`retry`.
        """
        if self._closed:
            raise WALError("write-ahead log is closed")
        if self._handle is None or not self._dirty:
            # Nothing volatile to flush: either nothing was written
            # since the last fsync, or a failed rotation left no active
            # segment (sealed segments were synced before they closed).
            self.last_synced_cycle = self.last_appended_cycle
            return

        def _attempt() -> None:
            assert self._handle is not None
            self._io.fsync(self._handle, site="wal.sync")

        try:
            retry_io(
                _attempt,
                policy=self.retry,
                site="wal.sync",
                metrics=self.metrics,
            )
        except StorageError:
            self._op_outcome("wal.sync", "error")
            raise
        self._op_outcome("wal.sync", "ok")
        self._dirty = False
        self.syncs += 1
        self.last_synced_cycle = self.last_appended_cycle
        self._count("fdeta_wal_syncs_total", "WAL fsync points.")

    def close(self) -> None:
        if self._closed:
            return
        if self._handle is not None:
            try:
                if self._dirty:
                    self.sync()
            finally:
                self._handle.close()
                self._handle = None
        self._closed = True

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------

    @property
    def active_segment(self) -> str | None:
        """Path of the segment currently being appended to."""
        if self._handle is None:
            return None
        return self._handle.name

    def segments(self) -> list[str]:
        return list_segments(self.directory)

    def compact(self, up_to_cycle: int) -> int:
        """Delete sealed segments fully covered by a checkpoint.

        A segment is covered when every record in it has
        ``cycle < up_to_cycle``.  Deletion proceeds from the oldest
        segment and stops at the first uncovered (or the active) one,
        so the surviving log is always a contiguous suffix.  Only frame
        headers are read; a sealed segment with an invalid frame is
        never covered, so compaction keeps it and stops there.  Returns
        the number of segments removed.
        """
        removed = 0
        active = self.active_segment
        for path in list_segments(self.directory):
            if active is not None and os.path.samefile(path, active):
                break
            _data, frames, _valid, torn = _walk_segment(path)
            if torn or any(cycle >= up_to_cycle for *_, cycle in frames):
                break
            os.unlink(path)
            removed += 1
        if removed:
            self._count(
                "fdeta_wal_segments_compacted_total",
                "WAL segments removed by compaction.",
                amount=removed,
            )
        return removed

    def _count(self, name: str, help: str, amount: int = 1) -> None:
        if self.metrics is not None:
            self.metrics.counter(name, help).inc(amount)

    def _op_outcome(self, site: str, outcome: str) -> None:
        """Count one durable storage op at ``site`` by its outcome."""
        if self.metrics is not None:
            self.metrics.counter(
                "fdeta_storage_ops_total",
                "Durable storage operations at WAL sites, by outcome.",
                labels=("site", "outcome"),
            ).inc(site=site, outcome=outcome)
