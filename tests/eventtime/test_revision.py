"""RevisionLog: monotone versions, auditable report, state roundtrip."""

import json

from repro.eventtime import RevisionKind, RevisionLog


def _record(log, week=0, cid="c1", kind=RevisionKind.UPGRADE, **kwargs):
    defaults = dict(
        reason="late reading reconciled",
        cycle=700,
        flagged_before=kind is RevisionKind.DOWNGRADE,
        flagged_after=kind is RevisionKind.UPGRADE,
        score_before=0.01,
        score_after=0.21,
    )
    defaults.update(kwargs)
    return log.record(week, cid, kind, **defaults)


class TestVersioning:
    def test_versions_monotone_per_pair(self):
        log = RevisionLog()
        assert _record(log).version == 1
        assert _record(log).version == 2
        assert _record(log, cid="c2").version == 1
        assert _record(log, week=1).version == 1
        assert _record(log).version == 3

    def test_current_versions_keyed_week_consumer(self):
        log = RevisionLog()
        _record(log)
        _record(log)
        _record(log, week=2, cid="c9")
        assert log.current_versions() == {"0:c1": 2, "2:c9": 1}


class TestQueries:
    def test_for_week_and_for_consumer(self):
        log = RevisionLog()
        _record(log, week=0, cid="c1")
        _record(log, week=1, cid="c1", kind=RevisionKind.DOWNGRADE)
        _record(log, week=1, cid="c2")
        assert sum(r.week_index == 1 for r in log.revisions) == 2
        assert sum(r.consumer_id == "c1" for r in log.revisions) == 2
        assert log.counts_by_kind() == {"upgrade": 2, "downgrade": 1}
        assert len(log) == 3


class TestReport:
    def test_report_carries_before_after_evidence(self):
        log = RevisionLog()
        _record(log, score_before=0.02, score_after=0.4)
        report = log.report()
        assert report["total"] == 1
        (entry,) = report["revisions"]
        assert entry["kind"] == "upgrade"
        assert entry["score_before"] == 0.02
        assert entry["score_after"] == 0.4
        assert entry["version"] == 1

    def test_write_report_is_valid_json(self, tmp_path):
        log = RevisionLog()
        _record(log)
        _record(log, kind=RevisionKind.DOWNGRADE)
        path = tmp_path / "revisions.json"
        log.write_report(path)
        loaded = json.loads(path.read_text())
        assert loaded["total"] == 2
        assert loaded["by_kind"] == {"upgrade": 1, "downgrade": 1}

    def test_state_roundtrip(self):
        log = RevisionLog()
        _record(log)
        _record(log)
        _record(log, week=3, cid="c7", kind=RevisionKind.DOWNGRADE)
        restored = RevisionLog.from_state(log.state_dict())
        assert restored.report() == log.report()
        # Versioning continues from the restored state, no reuse.
        assert _record(restored).version == 3
