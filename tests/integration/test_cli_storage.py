"""CLI storage-fault robustness: injection, degraded exits, scrub, exports."""

import json

from repro.cli import main

_BASE = [
    "monitor",
    "--consumers",
    "3",
    "--weeks",
    "5",
    "--min-training-weeks",
    "2",
    "--retrain-every-weeks",
    "4",
]


def _corrupt(path, offset=100):
    with open(path, "r+b") as handle:
        handle.seek(offset)
        byte = handle.read(1)
        handle.seek(offset)
        handle.write(bytes((byte[0] ^ 0xFF,)))


class TestUsageErrors:
    def test_bad_fault_spec_exits_2(self, capsys):
        assert main(_BASE + ["--storage-faults", "nonsense"]) == 2
        assert (
            main(_BASE + ["--storage-faults", "wal.append:write@0=eio"]) == 2
        )
        capsys.readouterr()

    def test_ledger_requires_faults(self, tmp_path, capsys):
        code = main(_BASE + ["--fault-ledger-out", str(tmp_path / "l.json")])
        assert code == 2
        assert "--storage-faults" in capsys.readouterr().err

    def test_scrub_requires_wal_and_checkpoint(self, tmp_path, capsys):
        assert main(_BASE + ["--scrub"]) == 2
        assert (
            main(_BASE + ["--scrub", "--wal-dir", str(tmp_path / "w")]) == 2
        )
        capsys.readouterr()

    def test_generations_must_be_positive(self, capsys):
        assert main(_BASE + ["--checkpoint-generations", "0"]) == 2
        capsys.readouterr()


class TestFaultInjectionRuns:
    def test_disk_full_degrades_and_exits_4(self, tmp_path, capsys):
        ledger_path = tmp_path / "ledger.json"
        code = main(
            _BASE
            + [
                "--wal-dir",
                str(tmp_path / "wal"),
                "--storage-faults",
                "wal.append:write@50=enospc",
                "--fault-ledger-out",
                str(ledger_path),
            ]
        )
        assert code == 4
        captured = capsys.readouterr()
        assert "storage-fault injection armed: 1 scheduled fault(s)" in (
            captured.err
        )
        assert "storage degraded at cycle" in captured.err
        assert "storage went read-only (disk full)" in captured.err
        assert "storage faults injected: 1/1" in captured.err
        # Committed verdicts are still served from read-only state.
        assert "total alerts:" in captured.out
        ledger = json.loads(ledger_path.read_text())
        assert ledger["injected"] == 1
        assert ledger["ledger"][0]["kind"] == "enospc"

    def test_transient_faults_are_retried_to_a_clean_run(
        self, tmp_path, capsys
    ):
        code = main(
            _BASE
            + [
                "--wal-dir",
                str(tmp_path / "wal"),
                "--storage-faults",
                "wal.append:write@40=eio,wal.sync:fsync@90=eio",
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "monitored 3 consumers for 5 weeks" in captured.out
        assert "storage faults injected: 2/2" in captured.err


class TestScrubCLI:
    def test_corrupt_checkpoint_is_repaired_and_verdicts_match(
        self, tmp_path, capsys
    ):
        ckpt = tmp_path / "monitor.ckpt"
        durable = _BASE + [
            "--wal-dir",
            str(tmp_path / "wal"),
            "--checkpoint",
            str(ckpt),
            "--checkpoint-generations",
            "2",
        ]
        assert main(durable) == 0
        baseline = capsys.readouterr().out
        _corrupt(ckpt)
        assert main(durable + ["--scrub", "--recover"]) == 0
        captured = capsys.readouterr()
        repaired = captured.out
        assert "scrub: current checkpoint" in captured.err
        assert "(repaired: rebuilt from previous generation" in captured.err
        assert "scrub: 2 generation(s) checked, 1 corrupt, 1 repaired" in (
            captured.err
        )

        def summary(out, prefix):
            return [
                line
                for line in out.splitlines()
                if line.startswith(prefix)
            ]

        # The repaired resume lands on the undisturbed run's verdicts.
        for prefix in (
            "total alerts",
            "suspected attackers",
            "suspected victims",
        ):
            assert summary(repaired, prefix) == summary(baseline, prefix)

    def test_clean_checkpoints_scrub_ok(self, tmp_path, capsys):
        ckpt = tmp_path / "monitor.ckpt"
        durable = _BASE + [
            "--wal-dir",
            str(tmp_path / "wal"),
            "--checkpoint",
            str(ckpt),
            "--checkpoint-generations",
            "2",
        ]
        assert main(durable) == 0
        capsys.readouterr()
        assert main(durable + ["--scrub", "--recover"]) == 0
        err = capsys.readouterr().err
        assert "scrub: 2 generation(s) checked, 0 corrupt, 0 repaired" in err

    def test_unrepairable_checkpoint_exits_1(self, tmp_path, capsys):
        import os

        ckpt = tmp_path / "monitor.ckpt"
        assert (
            main(
                _BASE
                + [
                    "--wal-dir",
                    str(tmp_path / "wal"),
                    "--checkpoint",
                    str(ckpt),
                ]
            )
            == 0
        )
        capsys.readouterr()
        # Corrupt current, no previous generation, and the WAL gone
        # missing: nothing left to rebuild from.
        _corrupt(ckpt)
        prev = f"{ckpt}.prev"
        if os.path.exists(prev):
            os.unlink(prev)
        code = main(
            _BASE
            + [
                "--wal-dir",
                str(tmp_path / "vanished"),
                "--checkpoint",
                str(ckpt),
                "--scrub",
                "--recover",
            ]
        )
        assert code == 1
        assert "could not repair" in capsys.readouterr().err


class TestExportsDegradeUnderENOSPC:
    def test_quarantine_report_enospc_warns_but_completes(
        self, tmp_path, capsys
    ):
        report = tmp_path / "quarantine.json"
        metrics = tmp_path / "metrics.prom"
        code = main(
            _BASE
            + [
                "--quarantine-report",
                str(report),
                "--metrics-out",
                str(metrics),
                "--storage-faults",
                "export.quarantine:*@1=enospc",
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "warning: could not write quarantine report" in captured.err
        assert "No space left on device" in captured.err
        assert not report.exists()
        assert metrics.exists()  # the other export still landed

    def test_health_export_enospc_warns_but_completes(
        self, tmp_path, capsys
    ):
        health = tmp_path / "health.json"
        code = main(
            [
                "monitor",
                "--consumers",
                "4",
                "--weeks",
                "5",
                "--min-training-weeks",
                "2",
                "--shards",
                "2",
                "--wal-dir",
                str(tmp_path / "fleet"),
                "--health-out",
                str(health),
                "--storage-faults",
                "export.health:*@1=enospc",
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "warning: could not write health report" in captured.err
        assert not health.exists()
        assert (
            "monitored 4 consumers for 5 weeks across 2 elastic shard(s)"
            in captured.out
        )

    def test_slo_export_enospc_warns_but_completes(self, tmp_path, capsys):
        slo = tmp_path / "slo.json"
        code = main(
            [
                "monitor",
                "--consumers",
                "4",
                "--weeks",
                "5",
                "--min-training-weeks",
                "2",
                "--elastic",
                "--shards",
                "2",
                "--wal-dir",
                str(tmp_path / "fleet"),
                "--slo-out",
                str(slo),
                "--storage-faults",
                "export.slo:*@1=enospc",
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "warning: could not write SLO report" in captured.err
        assert not slo.exists()
        assert "2 elastic shard(s)" in captured.out
