"""Quarantine store: exact counts, bounded evidence, JSON report."""

import json
import math

from repro.quarantine import (
    QuarantinedReading,
    QuarantineReason,
    QuarantineStore,
)


def _reject(cid="c1", reason=QuarantineReason.NEGATIVE, value=-1.0, cycle=0):
    return QuarantinedReading(
        consumer_id=cid, value=value, cycle=cycle, reason=reason
    )


class TestCounts:
    def test_len_and_counts(self):
        store = QuarantineStore()
        store.add(_reject("a", QuarantineReason.NEGATIVE))
        store.add(_reject("a", QuarantineReason.NON_FINITE))
        store.add(_reject("b", QuarantineReason.NEGATIVE))
        assert len(store) == 3
        assert store.counts_by_reason() == {"non_finite": 1, "negative": 2}
        assert store.counts_by_consumer() == {"a": 2, "b": 1}

    def test_cap_keeps_counts_exact(self):
        store = QuarantineStore(max_records=2)
        for i in range(5):
            store.add(_reject(cycle=i))
        assert len(store) == 5  # totals exact ...
        assert len(store.records) == 2  # ... evidence bounded
        assert store.records_dropped == 3


class TestReport:
    def test_report_shape(self):
        store = QuarantineStore()
        store.add(_reject("a", QuarantineReason.CLOCK_SKEW, cycle=7))
        report = store.report()
        assert report["total"] == 1
        assert report["by_reason"] == {"clock_skew": 1}
        assert report["records"][0]["cycle"] == 7
        assert report["records"][0]["reason"] == "clock_skew"

    def test_by_consumer_sorted_worst_first(self):
        store = QuarantineStore()
        for _ in range(3):
            store.add(_reject("noisy"))
        store.add(_reject("quiet"))
        assert list(store.report()["by_consumer"]) == ["noisy", "quiet"]

    def test_write_report_handles_nan(self, tmp_path):
        store = QuarantineStore()
        store.add(
            _reject(
                reason=QuarantineReason.NON_FINITE, value=math.nan
            )
        )
        path = tmp_path / "quarantine.json"
        store.write_report(path)
        text = path.read_text()
        assert "non_finite" in text
        # allow_nan=True keeps the raw value; the file must round-trip
        # through a permissive parser.
        parsed = json.loads(text)
        assert parsed["total"] == 1
