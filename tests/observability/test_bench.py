"""Tests for the benchmark perf-record trajectory files."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.observability.bench import (
    SCHEMA_VERSION,
    BenchTimer,
    bench_diff,
    main,
    write_bench_record,
)


def read_bench_records(name, directory):
    """The records ``write_bench_record`` left in ``BENCH_<name>.json``."""
    return json.loads((directory / f"BENCH_{name}.json").read_text())["records"]


class TestBenchTimer:
    def test_measures_elapsed_seconds(self):
        with BenchTimer() as timer:
            sum(range(1000))
        assert timer.elapsed > 0.0

    def test_elapsed_survives_exceptions(self):
        timer = BenchTimer()
        with pytest.raises(RuntimeError):
            with timer:
                raise RuntimeError("boom")
        assert timer.elapsed > 0.0


class TestTrajectoryFiles:
    def test_first_write_creates_the_file(self, tmp_path):
        path = write_bench_record(
            "eval", 1.25, {"consumers": 4}, directory=tmp_path
        )
        assert path == str(tmp_path / "BENCH_eval.json")
        payload = json.loads((tmp_path / "BENCH_eval.json").read_text())
        assert payload["name"] == "eval"
        (record,) = payload["records"]
        assert record["seconds"] == 1.25
        assert record["meta"] == {"consumers": 4}
        assert "recorded_at" in record and "python" in record

    def test_records_accumulate_across_writes(self, tmp_path):
        write_bench_record("eval", 1.0, directory=tmp_path)
        write_bench_record("eval", 2.0, directory=tmp_path)
        records = read_bench_records("eval", directory=tmp_path)
        assert [r["seconds"] for r in records] == [1.0, 2.0]

    def test_corrupt_file_is_replaced_not_fatal(self, tmp_path):
        (tmp_path / "BENCH_eval.json").write_text("{not json")
        write_bench_record("eval", 3.0, directory=tmp_path)
        records = read_bench_records("eval", directory=tmp_path)
        assert [r["seconds"] for r in records] == [3.0]

    def test_foreign_shape_is_replaced(self, tmp_path):
        (tmp_path / "BENCH_eval.json").write_text('["unexpected"]')
        write_bench_record("eval", 4.0, directory=tmp_path)
        assert [
            r["seconds"] for r in read_bench_records("eval", tmp_path)
        ] == [4.0]

    def test_rejects_path_traversal_names(self, tmp_path):
        with pytest.raises(ConfigurationError, match="invalid bench"):
            write_bench_record("../escape", 1.0, directory=tmp_path)
        with pytest.raises(ConfigurationError, match="invalid bench"):
            write_bench_record("", 1.0, directory=tmp_path)


class TestRecordStamps:
    def test_records_carry_the_uniform_run_stamps(self, tmp_path, monkeypatch):
        import repro.observability.bench as bench_module

        monkeypatch.setenv("REPRO_GIT_SHA", "abc1234")
        monkeypatch.setattr(bench_module, "_git_sha_cache", False)
        write_bench_record("eval", 1.0, directory=tmp_path)
        (record,) = read_bench_records("eval", directory=tmp_path)
        assert record["schema"] == SCHEMA_VERSION
        assert record["git_sha"] == "abc1234"
        assert record["python"].count(".") == 2
        assert record["machine"]
        assert "recorded_at" in record

    def test_git_sha_lookup_is_cached(self, tmp_path, monkeypatch):
        import repro.observability.bench as bench_module

        monkeypatch.setattr(bench_module, "_git_sha_cache", "cached99")
        write_bench_record("eval", 1.0, directory=tmp_path)
        (record,) = read_bench_records("eval", directory=tmp_path)
        assert record["git_sha"] == "cached99"

    def test_dirty_tree_is_stamped(self, tmp_path, monkeypatch):
        import subprocess

        import repro.observability.bench as bench_module

        def git(*args):
            return subprocess.run(
                ["git", "-c", "user.name=bench", "-c",
                 "user.email=bench@example.invalid", *args],
                cwd=tmp_path, check=True, capture_output=True, text=True,
            ).stdout.strip()

        git("init", "-q")
        (tmp_path / "tracked.txt").write_text("one\n")
        git("add", "tracked.txt")
        git("commit", "-q", "-m", "seed")
        sha = git("rev-parse", "--short", "HEAD")
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("REPRO_GIT_SHA", raising=False)

        def stamp():
            monkeypatch.setattr(bench_module, "_git_sha_cache", False)
            return bench_module._git_sha()

        # An untracked file does not dirty the stamp.
        (tmp_path / "untracked.txt").write_text("x\n")
        assert stamp() == sha
        (tmp_path / "tracked.txt").write_text("two\n")
        assert stamp() == f"{sha}+dirty"
        # The override still wins over a dirty tree.
        monkeypatch.setenv("REPRO_GIT_SHA", "pinned1")
        assert stamp() == "pinned1"


def _record(seconds, meta=None):
    return {"seconds": seconds, "meta": meta or {}}


class TestBenchDiff:
    def test_regression_beyond_tolerance_fails(self):
        diff = bench_diff(
            [_record(1.0)], [_record(1.5)], tolerance=0.2
        )
        assert not diff.ok
        (entry,) = diff.regressions
        assert entry["metric"] == "seconds"
        assert entry["delta"] == pytest.approx(0.5)

    def test_change_within_tolerance_is_ok(self):
        diff = bench_diff([_record(1.0)], [_record(1.1)], tolerance=0.2)
        assert diff.ok
        assert diff.entries[0]["regression"] is False

    def test_throughput_drop_regresses_speedup_improves(self):
        old = [_record(1.0, {"cycles_per_s": 100.0})]
        new = [_record(0.5, {"cycles_per_s": 60.0})]
        diff = bench_diff(old, new, tolerance=0.2)
        by_metric = {e["metric"]: e for e in diff.entries}
        assert by_metric["cycles_per_s"]["regression"]
        assert by_metric["seconds"]["improvement"]

    def test_series_matched_by_non_float_meta(self):
        old = [
            _record(1.0, {"stage": "ingest"}),
            _record(2.0, {"stage": "scoring"}),
        ]
        new = [
            _record(1.0, {"stage": "scoring"}),  # halved: improvement
            _record(9.0, {"stage": "ingest"}),  # 9x: regression
        ]
        diff = bench_diff(old, new, tolerance=0.2)
        (entry,) = diff.regressions
        assert "ingest" in entry["series"]

    def test_latest_record_per_series_wins(self):
        old = [_record(5.0), _record(1.0)]  # trajectory: latest is 1.0
        diff = bench_diff(old, [_record(1.1)], tolerance=0.2)
        assert diff.ok

    def test_unmatched_series_and_metrics_are_skipped(self):
        old = [_record(1.0, {"stage": "gone"})]
        new = [_record(1.0, {"stage": "new"})]
        diff = bench_diff(old, new)
        assert diff.entries == ()
        assert diff.ok
        assert "no comparable series" in diff.render()

    def test_unrecognised_metric_reported_but_never_gates(self):
        old = [_record(1.0, {"weeks": 9.0})]
        new = [_record(1.0, {"weeks": 90.0})]
        diff = bench_diff(old, new)
        by_metric = {e["metric"]: e for e in diff.entries}
        assert by_metric["weeks"]["direction"] == "informational"
        assert diff.ok

    def test_accepts_paths_and_payload_dicts(self, tmp_path):
        write_bench_record("x", 1.0, directory=tmp_path)
        path = tmp_path / "BENCH_x.json"
        diff = bench_diff(path, json.loads(path.read_text()))
        assert diff.ok

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ConfigurationError, match="tolerance"):
            bench_diff([], [], tolerance=-0.1)

    def test_render_names_regressions(self):
        diff = bench_diff([_record(1.0)], [_record(2.0)], tolerance=0.2)
        rendered = diff.render()
        assert "REGRESSION" in rendered
        assert "1 regression(s) beyond 20%" in rendered


class TestDiffCli:
    def _write(self, tmp_path, name, seconds):
        path = tmp_path / name
        path.write_text(
            json.dumps({"name": "t", "records": [_record(seconds)]})
        )
        return str(path)

    def test_exit_zero_when_clean(self, tmp_path, capsys):
        old = self._write(tmp_path, "old.json", 1.0)
        new = self._write(tmp_path, "new.json", 1.05)
        assert main(["diff", old, new]) == 0
        assert "no regressions" in capsys.readouterr().out

    def test_exit_one_on_regression(self, tmp_path, capsys):
        old = self._write(tmp_path, "old.json", 1.0)
        new = self._write(tmp_path, "new.json", 2.0)
        assert main(["diff", old, new, "--tolerance", "0.5"]) == 1
        assert "REGRESSION" in capsys.readouterr().out
