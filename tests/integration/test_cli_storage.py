"""CLI storage-fault robustness: injection, degraded exits, corrupt
checkpoints, exports."""

import json
import shutil

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


def _without_checkpoint_line(out):
    return [line for line in out.splitlines() if not line.startswith("checkpoint:")]


class TestScrubCLI:
    """``--recover`` survives a corrupt checkpoint with no extra flag."""

    def test_corrupt_checkpoint_is_repaired_and_verdicts_match(
        self, tmp_path, capsys
    ):
        durable = _BASE + ["--wal-dir", str(tmp_path / "wal")]
        assert main(durable + ["--checkpoint", str(tmp_path / "m.ckpt")]) == 0
        capsys.readouterr()
        # An undisturbed twin of the durable state to recover alongside.
        shutil.copytree(tmp_path / "wal", tmp_path / "twin_wal")
        for suffix in ("", ".prev"):
            shutil.copy(tmp_path / f"m.ckpt{suffix}", tmp_path / f"t.ckpt{suffix}")
        _corrupt(tmp_path / "m.ckpt")
        longer = ["--weeks", "6"]
        assert (
            main(
                _BASE
                + longer
                + ["--wal-dir", str(tmp_path / "twin_wal")]
                + ["--checkpoint", str(tmp_path / "t.ckpt"), "--recover"]
            )
            == 0
        )
        undisturbed = capsys.readouterr()
        assert "(current checkpoint generation," in undisturbed.err
        assert (
            main(
                durable
                + longer
                + ["--checkpoint", str(tmp_path / "m.ckpt"), "--recover"]
            )
            == 0
        )
        repaired = capsys.readouterr()
        assert "(previous checkpoint generation," in repaired.err
        assert "week   5:" in repaired.out
        assert _without_checkpoint_line(repaired.out) == (
            _without_checkpoint_line(undisturbed.out)
        )

    def test_clean_checkpoints_scrub_ok(self, tmp_path, capsys):
        durable = _BASE + [
            "--wal-dir",
            str(tmp_path / "wal"),
            "--checkpoint",
            str(tmp_path / "monitor.ckpt"),
        ]
        assert main(durable) == 0
        capsys.readouterr()
        assert main(durable + ["--recover"]) == 0
        err = capsys.readouterr().err
        assert "(current checkpoint generation, 0 WAL cycle(s) replayed)" in err

    def test_unrepairable_checkpoint_exits_2(self, tmp_path, capsys):
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
        # Both generations corrupt and the WAL gone missing: nothing
        # left to rebuild from.
        _corrupt(ckpt)
        _corrupt(f"{ckpt}.prev")
        code = main(
            _BASE
            + [
                "--wal-dir",
                str(tmp_path / "vanished"),
                "--checkpoint",
                str(ckpt),
                "--recover",
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "recovery failed:" in err
        assert "Traceback" not in err

    def test_resume_from_corrupt_checkpoint_exits_2(self, tmp_path, capsys):
        ckpt = tmp_path / "monitor.ckpt"
        assert main(_BASE + ["--checkpoint", str(ckpt)]) == 0
        capsys.readouterr()
        _corrupt(ckpt)
        assert main(_BASE + ["--checkpoint", str(ckpt), "--resume"]) == 2
        assert "recovery failed:" in capsys.readouterr().err

    def test_resume_from_incompatible_checkpoint_exits_2(
        self, tmp_path, capsys
    ):
        from tests.resilience.test_checkpoint import (
            write_checkpoint_naming_a_missing_module,
        )

        ckpt = tmp_path / "monitor.ckpt"
        write_checkpoint_naming_a_missing_module(ckpt)
        assert main(_BASE + ["--checkpoint", str(ckpt), "--resume"]) == 2
        err = capsys.readouterr().err
        assert "recovery failed:" in err
        assert "incompatible version" in err
        assert "Traceback" not in err

    def test_corrupt_shard_checkpoint_reopens_identically(
        self, tmp_path, capsys
    ):
        fleet = _BASE + ["--consumers", "4", "--shards", "2"]
        assert main(fleet + ["--wal-dir", str(tmp_path / "fleet")]) == 0
        capsys.readouterr()
        shutil.copytree(tmp_path / "fleet", tmp_path / "twin")
        _corrupt(tmp_path / "fleet" / "shard-0000.ckpt")
        longer = ["--weeks", "7"]
        assert main(fleet + longer + ["--wal-dir", str(tmp_path / "twin")]) == 0
        undisturbed = capsys.readouterr().out
        assert main(fleet + longer + ["--wal-dir", str(tmp_path / "fleet")]) == 0
        reopened = capsys.readouterr().out
        assert "week   6:" in reopened
        assert reopened == undisturbed

    def test_fleet_reopen_names_shards_on_previous_generation(
        self, tmp_path, capsys
    ):
        fleet = _BASE + ["--consumers", "4", "--shards", "2"]
        for name in ("fleet", "twin"):
            assert main(fleet + ["--wal-dir", str(tmp_path / name)]) == 0
        capsys.readouterr()
        _corrupt(tmp_path / "fleet" / "shard-0000.ckpt")
        longer = ["--weeks", "7"]
        assert main(fleet + longer + ["--wal-dir", str(tmp_path / "twin")]) == 0
        undisturbed = [
            line for line in capsys.readouterr().err.splitlines()
            if line.startswith("fleet resumed at cycle")
        ]
        assert undisturbed == [
            f"fleet resumed at cycle 1680 (2 shard(s) recovered from "
            f"{tmp_path / 'twin'})"
        ]
        assert main(fleet + longer + ["--wal-dir", str(tmp_path / "fleet")]) == 0
        reopened = [
            line for line in capsys.readouterr().err.splitlines()
            if line.startswith("fleet resumed at cycle")
        ]
        assert reopened == [
            f"fleet resumed at cycle 1680 (2 shard(s) recovered from "
            f"{tmp_path / 'fleet'}; previous checkpoint generation: "
            "shard-0000)"
        ]

    def test_unusable_shard_checkpoints_exit_2(self, tmp_path, capsys):
        fleet = _BASE + ["--shards", "2", "--wal-dir", str(tmp_path / "f")]
        assert main(fleet) == 0
        capsys.readouterr()
        _corrupt(tmp_path / "f" / "shard-0001.ckpt")
        _corrupt(tmp_path / "f" / "shard-0001.ckpt.prev")
        shutil.rmtree(tmp_path / "f" / "shard-0001")
        assert main(fleet) == 2
        err = capsys.readouterr().err
        assert "recovery failed:" in err
        assert "Traceback" not in err


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
