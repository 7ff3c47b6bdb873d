"""Structured JSONL event logging for the detection pipeline.

Operational questions about a theft detector — *when did this consumer's
breaker open? which week first alerted? what did coverage look like when
the alert fired?* — need machine-readable answers, not grep-able prose.
:class:`EventLogger` appends one JSON object per line with a wall-clock
timestamp, a level, an event name, and arbitrary key-value fields:

    {"ts": 1722850000.123, "level": "warning", "event": "breaker_opened",
     "consumer": "c0012", "cycle": 4031}

The logger writes to a path or an open stream, filters by level, and can
mirror every event to a stdlib logger (``forward_to``) so existing
handlers keep seeing traffic.
"""

from __future__ import annotations

import io
import json
import logging
import os
import time
from typing import IO, Mapping

from repro.errors import ConfigurationError

__all__ = ["EventLogger", "LEVELS"]

#: Recognised levels, in increasing severity order.
LEVELS: tuple[str, ...] = ("debug", "info", "warning", "error")

_LEVEL_ORDER: Mapping[str, int] = {name: i for i, name in enumerate(LEVELS)}

_LEVEL_TO_STDLIB: Mapping[str, int] = {
    "debug": logging.DEBUG,
    "info": logging.INFO,
    "warning": logging.WARNING,
    "error": logging.ERROR,
}


def _json_default(value: object) -> object:
    """Last-resort coercion so telemetry never crashes the pipeline."""
    if hasattr(value, "value"):  # Enum members log their payload
        return getattr(value, "value")
    return str(value)


class EventLogger:
    """Leveled JSONL event sink.

    Parameters
    ----------
    path:
        File to append events to (opened lazily, line-buffered).
        Mutually exclusive with ``stream``.
    stream:
        An already-open text stream to write to (not closed by
        :meth:`close`; the caller owns it).
    level:
        Minimum level recorded; events below it are dropped.
    forward_to:
        Optional stdlib logger (or logger name) that receives a mirror
        of every recorded event via ``Logger.log``.
    """

    def __init__(
        self,
        path: str | os.PathLike | None = None,
        stream: IO[str] | None = None,
        level: str = "info",
        forward_to: logging.Logger | str | None = None,
    ) -> None:
        if path is not None and stream is not None:
            raise ConfigurationError("pass either path or stream, not both")
        if level not in _LEVEL_ORDER:
            raise ConfigurationError(
                f"level must be one of {LEVELS}, got {level!r}"
            )
        self._path = os.fspath(path) if path is not None else None
        self._stream = stream
        self._owns_stream = False
        self._threshold = _LEVEL_ORDER[level]
        if isinstance(forward_to, str):
            forward_to = logging.getLogger(forward_to)
        self._forward = forward_to
        self.events_written = 0

    # ------------------------------------------------------------------
    # Core API
    # ------------------------------------------------------------------

    def log(self, level: str, event: str, **fields: object) -> None:
        """Record one event (dropped silently when below the level)."""
        order = _LEVEL_ORDER.get(level)
        if order is None:
            raise ConfigurationError(
                f"level must be one of {LEVELS}, got {level!r}"
            )
        if order < self._threshold:
            return
        record = {"ts": time.time(), "level": level, "event": event}
        record.update(fields)
        line = json.dumps(record, default=_json_default, sort_keys=False)
        stream = self._ensure_stream()
        stream.write(line)
        stream.write("\n")
        stream.flush()
        self.events_written += 1
        if self._forward is not None:
            self._forward.log(
                _LEVEL_TO_STDLIB[level], "%s %s", event, fields
            )

    def debug(self, event: str, **fields: object) -> None:
        self.log("debug", event, **fields)

    def info(self, event: str, **fields: object) -> None:
        self.log("info", event, **fields)

    def warning(self, event: str, **fields: object) -> None:
        self.log("warning", event, **fields)

    def error(self, event: str, **fields: object) -> None:
        self.log("error", event, **fields)

    # ------------------------------------------------------------------
    # Stream management
    # ------------------------------------------------------------------

    def _ensure_stream(self) -> IO[str]:
        if self._stream is None:
            if self._path is None:
                # No sink configured: buffer in memory so the logger is
                # still inspectable (tests, dry runs).
                self._stream = io.StringIO()
            else:
                self._stream = open(self._path, "a", encoding="utf-8")
            self._owns_stream = True
        return self._stream

    def close(self) -> None:
        """Flush and release the sink; safe to call more than once.

        A caller-owned stream is flushed but stays open (the caller owns
        its lifetime); the in-memory StringIO fallback stays readable
        after close so tests can inspect what was logged.
        """
        stream = self._stream
        if stream is None:
            return
        try:
            stream.flush()
        except (ValueError, OSError):  # already closed / broken sink
            pass
        if self._owns_stream and not isinstance(stream, io.StringIO):
            stream.close()
            self._stream = None
            self._owns_stream = False

    def __enter__(self) -> "EventLogger":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
