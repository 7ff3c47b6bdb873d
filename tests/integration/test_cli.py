"""Tests for the command-line interface."""

import os
import struct
import zlib

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_generate_args(self):
        args = build_parser().parse_args(
            ["generate", "out.txt", "--consumers", "5", "--weeks", "4"]
        )
        assert args.output == "out.txt"
        assert args.consumers == 5


class TestCommands:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "4B" in out
        assert "Requires ADR" in out

    def test_generate_roundtrip(self, tmp_path, capsys):
        out_file = tmp_path / "data.txt"
        code = main(
            [
                "generate",
                str(out_file),
                "--consumers",
                "2",
                "--weeks",
                "3",
                "--seed",
                "1",
            ]
        )
        assert code == 0
        assert out_file.exists()
        assert "2 consumers x 3 weeks" in capsys.readouterr().out

    def test_evaluate_parallel_flag(self, capsys):
        code = main(
            [
                "evaluate",
                "--consumers",
                "3",
                "--weeks",
                "30",
                "--vectors",
                "2",
                "--parallel",
                "2",
            ]
        )
        assert code == 0
        assert "Table II" in capsys.readouterr().out

    def test_evaluate_small(self, capsys):
        code = main(
            [
                "evaluate",
                "--consumers",
                "3",
                "--weeks",
                "30",
                "--vectors",
                "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Table II" in out
        assert "Table III" in out
        assert "KLD detector" in out

    def test_ablation_small(self, capsys):
        code = main(
            [
                "ablation",
                "--consumers",
                "3",
                "--weeks",
                "30",
                "--sample",
                "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "bins" in out

    def test_topology_generate_and_roundtrip(self, tmp_path, capsys):
        topo_file = tmp_path / "topo.json"
        code = main(
            [
                "topology",
                "--consumers",
                "8",
                "--save",
                str(topo_file),
                "--ascii",
            ]
        )
        assert code == 0
        assert topo_file.exists()
        out = capsys.readouterr().out
        assert "[#]" in out  # consumer marker in ASCII mode
        code = main(["topology", "--load", str(topo_file), "--ascii"])
        assert code == 0
        assert "c0" in capsys.readouterr().out

    def test_stats(self, capsys):
        code = main(["stats", "--consumers", "3", "--weeks", "20"])
        assert code == 0
        out = capsys.readouterr().out
        assert "consumers:" in out
        assert "largest consumer:" in out

    def test_report_to_file(self, tmp_path, capsys):
        out_file = tmp_path / "report.md"
        code = main(
            [
                "report",
                "--consumers",
                "3",
                "--weeks",
                "30",
                "--vectors",
                "2",
                "--output",
                str(out_file),
            ]
        )
        assert code == 0
        text = out_file.read_text()
        assert text.startswith("# F-DETA evaluation report")
        assert "Table II" in text

    def test_report_to_stdout(self, capsys):
        code = main(
            ["report", "--consumers", "3", "--weeks", "30", "--vectors", "2"]
        )
        assert code == 0
        assert "# F-DETA evaluation report" in capsys.readouterr().out

    def test_monitor_runs_and_checkpoints(self, tmp_path, capsys):
        ckpt = tmp_path / "monitor.ckpt"
        argv = [
            "monitor",
            "--consumers",
            "3",
            "--weeks",
            "8",
            "--min-training-weeks",
            "4",
            "--drop-rate",
            "0.05",
            "--checkpoint",
            str(ckpt),
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "monitored 3 consumers for 8 weeks" in out
        assert "coverage" in out
        assert ckpt.exists()
        # Resuming from the finished checkpoint is a no-op replay.
        assert main(argv + ["--resume"]) == 0
        assert "monitored 3 consumers for 8 weeks (resumed)" in (
            capsys.readouterr().out
        )

    def test_monitor_overload_usage_errors(self, tmp_path, capsys):
        base = ["monitor", "--consumers", "3", "--weeks", "8"]
        assert main(base + ["--shards", "0"]) == 2
        assert main(base + ["--shards", "2"]) == 2  # needs --wal-dir
        assert (
            main(
                base
                + [
                    "--shards",
                    "2",
                    "--wal-dir",
                    str(tmp_path / "fleet"),
                    "--checkpoint",
                    str(tmp_path / "x.ckpt"),
                ]
            )
            == 2
        )
        assert main(base + ["--max-queue", "0"]) == 2
        capsys.readouterr()

    def test_monitor_with_queue_stays_clean(self, capsys):
        code = main(
            [
                "monitor",
                "--consumers",
                "3",
                "--weeks",
                "8",
                "--min-training-weeks",
                "4",
                "--max-queue",
                "64",
            ]
        )
        out = capsys.readouterr().out
        # Queue alone (no deadline, policy off) must not degrade the run.
        assert code == 0
        assert "0 shed" in out
        assert "monitored 3 consumers for 8 weeks" in out

    def test_monitor_deadline_overrun_exits_degraded(self, capsys):
        code = main(
            [
                "monitor",
                "--consumers",
                "3",
                "--weeks",
                "8",
                "--min-training-weeks",
                "4",
                "--shed-policy",
                "priority",
                "--cycle-deadline-ms",
                "0.0001",
            ]
        )
        captured = capsys.readouterr()
        assert code == 4
        assert "completed in degraded mode" in captured.err
        assert "deadline overrun(s)" in captured.err
        # The weekly reports are still produced and still well-formed.
        assert "monitored 3 consumers for 8 weeks" in captured.out

    def test_monitor_sharded_fleet(self, tmp_path, capsys):
        argv = [
            "monitor",
            "--consumers",
            "4",
            "--weeks",
            "8",
            "--min-training-weeks",
            "4",
            "--shards",
            "2",
            "--wal-dir",
            str(tmp_path / "fleet"),
            "--metrics-out",
            str(tmp_path / "fleet.prom"),
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "[2/2 shards]" in out
        assert (
            "monitored 4 consumers for 8 weeks across 2 elastic shard(s)"
            in out
        )
        assert "fleet restarts: 0" in out
        # The merged metrics file is valid Prometheus exposition.
        from repro.observability.metrics import parse_prometheus

        series = parse_prometheus((tmp_path / "fleet.prom").read_text())
        assert "fdeta_ingest_cycles_total" in series
        assert "fdeta_wal_appends_total" in series

    def test_monitor_sharded_matches_single_shard_verdicts(
        self, tmp_path, capsys
    ):
        base = [
            "monitor",
            "--consumers",
            "4",
            "--weeks",
            "8",
            "--min-training-weeks",
            "4",
        ]
        assert main(base) == 0
        single = capsys.readouterr().out
        assert (
            main(
                base
                + ["--shards", "2", "--wal-dir", str(tmp_path / "fleet")]
            )
            == 0
        )
        sharded = capsys.readouterr().out

        import ast

        def extract(out, prefix):
            value = next(
                line.split(":", 1)[1].strip()
                for line in out.splitlines()
                if line.startswith(prefix)
            )
            # Verdict lines print either 'none' or a python list; order
            # differs between the paths (shards report in shard order).
            if value.startswith("["):
                return set(ast.literal_eval(value))
            return value

        assert extract(single, "total alerts") == extract(
            sharded, "total alerts"
        )
        assert extract(single, "suspected attackers") == extract(
            sharded, "suspected attackers"
        )
        assert extract(single, "suspected victims") == extract(
            sharded, "suspected victims"
        )

    def test_evaluate_from_file(self, tmp_path, capsys):
        out_file = tmp_path / "data.txt"
        main(["generate", str(out_file), "--consumers", "2", "--weeks", "20"])
        capsys.readouterr()
        code = main(
            ["evaluate", "--input", str(out_file), "--vectors", "2"]
        )
        assert code == 0
        assert "Table II" in capsys.readouterr().out


class TestMonitorProfileOut:
    """``--profile-out`` exports the same measurement as the
    ``fdeta_stage_seconds`` series of ``--metrics-out``."""

    _base = [
        "monitor",
        "--consumers",
        "4",
        "--weeks",
        "3",
        "--min-training-weeks",
        "2",
    ]

    @staticmethod
    def _series(path, name):
        from repro.observability.metrics import parse_prometheus

        series = parse_prometheus(path.read_text())
        return {
            labels.get("stage"): value for labels, value in series[name]
        }

    @pytest.mark.parametrize(
        "path_args,shards",
        [
            ([], 1),
            (["--eventtime", "--scramble-delay", "3"], 1),
            (["--shards", "2", "--wal-dir", "fleet"], 2),
        ],
        ids=["plain", "eventtime", "shards"],
    )
    def test_profile_matches_stage_histogram(
        self, tmp_path, capsys, monkeypatch, path_args, shards
    ):
        import json

        monkeypatch.chdir(tmp_path)
        argv = self._base + path_args + [
            "--profile-out",
            "profile.json",
            "--metrics-out",
            "metrics.prom",
        ]
        assert main(argv) == 0
        capsys.readouterr()
        profile = json.loads((tmp_path / "profile.json").read_text())
        counts = self._series(
            tmp_path / "metrics.prom", "fdeta_stage_seconds_count"
        )
        sums = self._series(
            tmp_path / "metrics.prom", "fdeta_stage_seconds_sum"
        )
        (cycles,) = self._series(
            tmp_path / "metrics.prom", "fdeta_ingest_cycles_total"
        ).values()
        stages = profile["stages"]
        assert set(stages) == set(counts)
        for stage, stats in stages.items():
            assert stats["calls"] == counts[stage], stage
            if shards == 1:
                # One service: the same float additions in the same order.
                assert stats["cum_s"] == sums[stage], stage
        assert stages["firewall"]["calls"] == cycles == shards * 3 * 336
        if shards > 1:
            assert stages["wal_append"]["calls"] == cycles
        assert [e["stage"] for e in profile["hot_stages"]] == sorted(
            stages, key=lambda name: stages[name]["self_s"], reverse=True
        )[:10]


class TestMonitorElastic:
    _base = [
        "monitor",
        "--consumers",
        "4",
        "--weeks",
        "8",
        "--min-training-weeks",
        "4",
    ]

    def test_usage_errors(self, tmp_path, capsys):
        assert main(self._base + ["--grow-at-week", "5"]) == 2
        assert main(self._base + ["--elastic"]) == 2  # needs --wal-dir
        assert (
            main(
                self._base
                + [
                    "--elastic",
                    "--wal-dir",
                    str(tmp_path / "fleet"),
                    "--checkpoint",
                    str(tmp_path / "x.ckpt"),
                ]
            )
            == 2
        )
        assert (
            main(
                self._base
                + [
                    "--eventtime",
                    "--elastic",
                    "--wal-dir",
                    str(tmp_path / "w"),
                ]
            )
            == 2
        )
        capsys.readouterr()

    def test_fleet_quarantine_report_merges_every_shard(
        self, tmp_path, capsys
    ):
        import json

        report = tmp_path / "q.json"
        argv = self._base + [
            "--weeks",
            "2",
            "--shards",
            "2",
            "--corrupt-rate",
            "0.01",
            "--wal-dir",
            str(tmp_path / "fleet"),
            "--quarantine-report",
            str(report),
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        printed = next(
            int(line.split(":")[1])
            for line in out.splitlines()
            if line.startswith("quarantined readings:")
        )
        loaded = json.loads(report.read_text())
        assert printed > 0
        assert loaded["total"] == printed
        assert sum(loaded["by_reason"].values()) == printed

    def test_elastic_grow_matches_single_service_verdicts(
        self, tmp_path, capsys
    ):
        """A live mid-run shard add leaves the verdicts untouched."""
        assert main(self._base) == 0
        single = capsys.readouterr().out

        assert (
            main(
                self._base
                + [
                    "--elastic",
                    "--shards",
                    "2",
                    "--grow-at-week",
                    "5",
                    "--wal-dir",
                    str(tmp_path / "fleet"),
                    "--metrics-out",
                    str(tmp_path / "fleet.prom"),
                ]
            )
            == 0
        )
        captured = capsys.readouterr()
        assert "live rebalance at cycle 1680" in captured.err
        assert "[3/3 shards]" in captured.out
        assert (
            "monitored 4 consumers for 8 weeks across 3 elastic shard(s)"
            in captured.out
        )

        import ast

        def extract(out, prefix):
            value = next(
                line.split(":", 1)[1].strip()
                for line in out.splitlines()
                if line.startswith(prefix)
            )
            if value.startswith("["):
                return set(ast.literal_eval(value))
            return value

        for prefix in (
            "total alerts",
            "suspected attackers",
            "suspected victims",
        ):
            assert extract(single, prefix) == extract(captured.out, prefix)

        from repro.observability.metrics import parse_prometheus

        series = parse_prometheus((tmp_path / "fleet.prom").read_text())
        assert "fdeta_fleet_handoffs_total" in series
        assert "fdeta_wal_appends_total" in series

    def test_elastic_reopen_resumes_from_manifest(self, tmp_path, capsys):
        argv = self._base + [
            "--elastic",
            "--shards",
            "2",
            "--wal-dir",
            str(tmp_path / "fleet"),
        ]
        assert main(argv) == 0
        capsys.readouterr()
        # Second run over the same base_dir: the manifest says every
        # cycle is already ingested, so it resumes straight to the end.
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert "fleet resumed at cycle 2688" in captured.err
        assert (
            "monitored 4 consumers for 8 weeks across 2 elastic shard(s)"
            in captured.out
        )


class TestMonitorFleetOverload:
    """Load control on the shard fleet: ``--shards N`` and ``--elastic``
    run on one path, so both honour --shed-policy/--cycle-deadline-ms."""

    _base = [
        "monitor",
        "--consumers",
        "4",
        "--weeks",
        "4",
        "--seed",
        "11",
        "--min-training-weeks",
        "2",
        "--drop-rate",
        "0.02",
        "--outage-rate",
        "0",
        "--corrupt-rate",
        "0.01",
        "--shards",
        "2",
        "--shed-policy",
        "priority",
        "--cycle-deadline-ms",
        "0.0001",
    ]

    def _run(self, tmp_path, capsys, *extra):
        code = main(
            self._base + ["--wal-dir", str(tmp_path / "fleet"), *extra]
        )
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_elastic_fleet_honours_load_control(self, tmp_path, capsys):
        code, out, err = self._run(tmp_path / "elastic", capsys, "--elastic")
        assert code == 4
        assert "completed in degraded mode: 4 consumer-week(s) shed" in err
        assert "4 shed [2/2 shards]" in out
        _, sharded_out, _ = self._run(tmp_path / "sharded", capsys)
        assert out == sharded_out

    def test_sharded_fleet_keeps_its_overload_verdicts(self, tmp_path, capsys):
        code, out, err = self._run(tmp_path, capsys)
        assert code == 4
        assert "4 consumer-week(s) shed, 1344 deadline overrun(s)" in err
        assert "total alerts: 0" in out


class TestMonitorOldWALVersion:
    """A version-1 (JSON) WAL segment fails every monitor run path with
    the same one-line ``recovery failed`` message and exit code 2."""

    _base = ["monitor", "--consumers", "3", "--weeks", "6",
             "--min-training-weeks", "3"]

    @staticmethod
    def _write_v1_segment(directory):
        """One cycle record as the version-1 JSON codec framed it."""
        payload = b'{"k":"cycle","t":0,"r":{"C0":1.0}}'
        os.makedirs(directory, exist_ok=True)
        with open(os.path.join(directory, "wal-00000001.seg"), "wb") as h:
            h.write(struct.pack("<8sHQ", b"FDWALSEG", 1, 0))
            h.write(struct.pack("<II", len(payload), zlib.crc32(payload)))
            h.write(payload)

    def _fails_typed(self, argv, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "recovery failed:" in err
        assert "has WAL version 1, expected 2" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("recover", [["--recover"], []])
    def test_single_service(self, tmp_path, capsys, recover):
        self._write_v1_segment(tmp_path / "wal")
        self._fails_typed(
            self._base + ["--wal-dir", str(tmp_path / "wal"), *recover],
            capsys,
        )

    @pytest.mark.parametrize("recover", [["--recover"], []])
    def test_eventtime(self, tmp_path, capsys, recover):
        self._write_v1_segment(tmp_path / "wal")
        self._fails_typed(
            self._base
            + ["--eventtime", "--wal-dir", str(tmp_path / "wal"), *recover],
            capsys,
        )

    def test_fleet_open(self, tmp_path, capsys):
        self._write_v1_segment(tmp_path / "fleet" / "shard-0000")
        self._fails_typed(
            self._base
            + ["--shards", "2", "--wal-dir", str(tmp_path / "fleet")],
            capsys,
        )


class TestMonitorEventTime:
    _base = [
        "monitor",
        "--consumers",
        "3",
        "--weeks",
        "6",
        "--min-training-weeks",
        "3",
        "--retrain-every-weeks",
        "2",
        "--eventtime",
    ]

    def test_usage_errors(self, tmp_path, capsys):
        plain = ["monitor", "--consumers", "3", "--weeks", "6"]
        assert main(plain + ["--revisions-out", str(tmp_path / "r.json")]) == 2
        assert (
            main(
                self._base
                + ["--shards", "2", "--wal-dir", str(tmp_path / "w")]
            )
            == 2
        )
        assert main(self._base + ["--max-queue", "8"]) == 2
        assert (
            main(self._base + ["--checkpoint", str(tmp_path / "c.bin")]) == 2
        )
        capsys.readouterr()

    def test_eventtime_run_writes_revisions(self, tmp_path, capsys):
        import json

        revisions = tmp_path / "revisions.json"
        code = main(
            self._base
            + ["--scramble-delay", "3", "--revisions-out", str(revisions)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "final weekly verdicts:" in out
        assert "monitored 3 consumers for 6 weeks (event-time)" in out
        assert "verdict revisions:" in out
        loaded = json.loads(revisions.read_text())
        assert set(loaded) >= {"total", "by_kind", "revisions"}

    def test_smoke_arguments_train_and_alert_under_loss(
        self, tmp_path, capsys
    ):
        # Readings are lost at the default --drop-rate, so hardly any
        # consumer-week arrives gap-free; finalized weeks keep their
        # repair, so detectors still train and score.
        log = tmp_path / "events.jsonl"
        argv = [
            "monitor",
            "--consumers",
            "4",
            "--weeks",
            "6",
            "--seed",
            "11",
            "--min-training-weeks",
            "3",
            "--retrain-every-weeks",
            "2",
            "--eventtime",
            "--lateness-bound",
            "48",
            "--grace-weeks",
            "1",
            "--scramble-delay",
            "0",
            "--log-json",
            str(log),
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        total = next(
            int(line.split(":")[1])
            for line in out.splitlines()
            if line.startswith("total alerts:")
        )
        assert total > 0
        assert '"detectors_trained"' in log.read_text()

    def test_scrambled_final_verdicts_match_in_order(self, capsys):
        def final_section(argv):
            assert main(argv) == 0
            out = capsys.readouterr().out
            section = out.split("final weekly verdicts:\n", 1)[1]
            # Drop the revision-count line: the paths there legitimately
            # differ; everything else must match exactly.
            return "\n".join(
                line
                for line in section.splitlines()
                if not line.startswith("verdict revisions:")
            )

        in_order = final_section(self._base + ["--scramble-delay", "0"])
        scrambled = final_section(self._base + ["--scramble-delay", "5"])
        assert in_order == scrambled
