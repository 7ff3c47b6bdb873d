"""Tests for the structured JSONL event logger."""

import enum
import io
import json
import logging

import pytest

from repro.errors import ConfigurationError
from repro.observability.events import LEVELS, EventLogger


def _lines(stream: io.StringIO) -> list[dict]:
    return [
        json.loads(line)
        for line in stream.getvalue().splitlines()
        if line.strip()
    ]


class TestEventShape:
    def test_one_json_object_per_line(self):
        stream = io.StringIO()
        logger = EventLogger(stream=stream)
        logger.info("week_completed", week=3, alerts=2)
        logger.warning("breaker_opened", consumer="c1")
        records = _lines(stream)
        assert len(records) == 2
        first = records[0]
        assert first["event"] == "week_completed"
        assert first["level"] == "info"
        assert first["week"] == 3
        assert first["alerts"] == 2
        assert isinstance(first["ts"], float)

    def test_levels_constant_ordering(self):
        assert LEVELS == ("debug", "info", "warning", "error")

    def test_enum_fields_log_their_value(self):
        class Nature(enum.Enum):
            ATTACKER = "suspected_attacker"

        stream = io.StringIO()
        EventLogger(stream=stream).error("alert", nature=Nature.ATTACKER)
        assert _lines(stream)[0]["nature"] == "suspected_attacker"

    def test_unserialisable_fields_fall_back_to_str(self):
        stream = io.StringIO()
        EventLogger(stream=stream).info("x", obj={1, 2})
        record = _lines(stream)[0]
        assert isinstance(record["obj"], str)


class TestLevelFiltering:
    def test_events_below_threshold_are_dropped(self):
        stream = io.StringIO()
        logger = EventLogger(stream=stream, level="warning")
        logger.debug("a")
        logger.info("b")
        logger.warning("c")
        logger.error("d")
        assert [r["event"] for r in _lines(stream)] == ["c", "d"]
        assert logger.events_written == 2

    def test_invalid_threshold_rejected(self):
        with pytest.raises(ConfigurationError, match="level"):
            EventLogger(level="critical")

    def test_invalid_event_level_rejected(self):
        with pytest.raises(ConfigurationError, match="level"):
            EventLogger(stream=io.StringIO()).log("fatal", "x")


class TestSinks:
    def test_path_sink_appends(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with EventLogger(path=path) as logger:
            logger.info("first")
        with EventLogger(path=path) as logger:
            logger.info("second")
        events = [
            json.loads(line) for line in path.read_text().splitlines()
        ]
        assert [e["event"] for e in events] == ["first", "second"]

    def test_path_and_stream_are_mutually_exclusive(self, tmp_path):
        with pytest.raises(ConfigurationError, match="not both"):
            EventLogger(path=tmp_path / "x", stream=io.StringIO())

    def test_no_sink_buffers_in_memory(self):
        logger = EventLogger()
        logger.info("buffered")
        assert logger.events_written == 1
        logger.close()  # no-op for the in-memory buffer

    def test_close_leaves_caller_owned_stream_open(self):
        stream = io.StringIO()
        logger = EventLogger(stream=stream)
        logger.info("x")
        logger.close()
        assert not stream.closed


class TestClose:
    def test_close_is_idempotent_for_path_sinks(self, tmp_path):
        logger = EventLogger(path=tmp_path / "events.jsonl")
        logger.info("x")
        logger.close()
        logger.close()  # must not raise on the already-released sink

    def test_close_flushes_and_closes_an_owned_file(self, tmp_path):
        path = tmp_path / "events.jsonl"
        logger = EventLogger(path=path)
        logger.info("durable")
        stream = logger._stream
        logger.close()
        assert stream.closed
        assert "durable" in path.read_text()

    def test_closed_logger_can_reopen_its_path(self, tmp_path):
        path = tmp_path / "events.jsonl"
        logger = EventLogger(path=path)
        logger.info("first")
        logger.close()
        logger.info("second")  # lazily reopens in append mode
        logger.close()
        events = [json.loads(line) for line in path.read_text().splitlines()]
        assert [e["event"] for e in events] == ["first", "second"]

    def test_in_memory_buffer_stays_readable_after_close(self):
        logger = EventLogger()
        logger.info("kept")
        logger.close()
        assert "kept" in logger._stream.getvalue()
        logger.close()  # still idempotent

    def test_close_survives_a_caller_closed_stream(self, tmp_path):
        stream = open(tmp_path / "x.jsonl", "w", encoding="utf-8")
        logger = EventLogger(stream=stream)
        logger.info("y")
        stream.close()  # caller closes its own stream first
        logger.close()  # flush on the dead stream must not raise


class TestStdlibBridge:
    def test_forward_to_mirrors_events_out(self, caplog):
        stream = io.StringIO()
        events = EventLogger(
            stream=stream, forward_to="test.observability.bridge.out"
        )
        with caplog.at_level(
            logging.INFO, logger="test.observability.bridge.out"
        ):
            events.info("week_completed", week=1)
        assert len(_lines(stream)) == 1
        assert any(
            "week_completed" in message for message in caplog.messages
        )
