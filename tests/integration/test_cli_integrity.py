"""CLI smoke tests for the training-integrity flags.

The end-to-end story, driven entirely through ``repro monitor``: a
boiling-frog ramp armed with ``--ramp-attack`` poisons the baseline and
the seed pipeline misses it; the same run with ``--integrity`` screens
the ramp weeks out of training, convicts the attacker at the theft
floor, and exports the model lineage; ``--model-rollback`` restores a
registry version after ``--resume``.
"""

import json

import numpy as np
import pytest

from repro.cli import main
from repro.data.dataset import SmartMeterDataset
from repro.data.loader import save_cer_file

from tests.integrity.conftest import (
    FLOOR_WEEKS,
    RAMP_DECAY,
    RAMP_FLOOR,
    RAMP_START,
    TOTAL_WEEKS,
    TRAIN_AT,
    honest_weeks,
)

SEED = 11
ATTACKER = "c00"


@pytest.fixture(scope="module")
def cer_file(tmp_path_factory):
    """An honest 4-consumer CER file; the CLI arms the ramp itself."""
    series = {
        f"c{i:02d}": np.concatenate(honest_weeks((SEED, i), TOTAL_WEEKS))
        for i in range(4)
    }
    path = tmp_path_factory.mktemp("integrity_cli") / "population.txt"
    save_cer_file(SmartMeterDataset(readings=series, train_weeks=TRAIN_AT), path)
    return str(path)


def _monitor_args(cer_file, *extra):
    return [
        "monitor",
        "--input",
        cer_file,
        "--min-training-weeks",
        str(TRAIN_AT),
        "--retrain-every-weeks",
        "8",
        "--drop-rate",
        "0",
        "--outage-rate",
        "0",
        "--corrupt-rate",
        "0",
        "--ramp-attack",
        ATTACKER,
        "--ramp-start-week",
        str(RAMP_START),
        "--ramp-decay",
        str(RAMP_DECAY),
        "--ramp-floor",
        str(RAMP_FLOOR),
        *extra,
    ]


def _attacker_alert_weeks(stdout: str) -> int:
    return sum(
        1 for line in stdout.splitlines() if line.strip().startswith(ATTACKER)
    )


class TestPoisonedBaselineDifferential:
    def test_seed_pipeline_misses_the_ramp(self, cer_file, capsys):
        assert main(_monitor_args(cer_file)) == 0
        captured = capsys.readouterr()
        assert "ramp attack armed on c00" in captured.err
        # The poisoned baseline absorbed the ramp: the attacker is
        # flagged on at most a sliver of the theft-floor weeks.
        assert _attacker_alert_weeks(captured.out) <= 2

    def test_integrity_mode_convicts_and_exports_lineage(
        self, cer_file, capsys, tmp_path
    ):
        lineage_path = tmp_path / "lineage.json"
        assert (
            main(
                _monitor_args(
                    cer_file,
                    "--integrity",
                    "--lineage-out",
                    str(lineage_path),
                )
            )
            == 0
        )
        captured = capsys.readouterr()
        # Same ramp, same data: the screened model convicts the
        # attacker on every theft-floor week.
        assert _attacker_alert_weeks(captured.out) >= len(FLOOR_WEEKS)
        assert "model: v" in captured.out
        payload = json.loads(lineage_path.read_text())
        assert payload["active_version"] >= 1
        kinds = {event["kind"] for event in payload["events"]}
        assert {"submitted", "promoted"} <= kinds
        active = next(
            v
            for v in payload["versions"]
            if v["version"] == payload["active_version"]
        )
        # The promoted model's lineage excludes the sentinel-convicted
        # ramp weeks for the attacker (the default config convicts from
        # one week after the ramp reaches its floor).
        assert max(active["lineage"][ATTACKER]) <= RAMP_START + 2
        assert len(active["lineage"][ATTACKER]) < len(
            active["lineage"]["c01"]
        )
        assert active["canary"]["passed"] is True


class TestRollbackCommand:
    def test_resume_with_model_rollback(self, cer_file, capsys, tmp_path):
        checkpoint = tmp_path / "monitor.ckpt"
        assert (
            main(
                _monitor_args(
                    cer_file,
                    "--integrity",
                    "--checkpoint",
                    str(checkpoint),
                )
            )
            == 0
        )
        capsys.readouterr()
        assert (
            main(
                _monitor_args(
                    cer_file,
                    "--integrity",
                    "--checkpoint",
                    str(checkpoint),
                    "--resume",
                    "--model-rollback",
                    "1",
                )
            )
            == 0
        )
        captured = capsys.readouterr()
        assert "rolled the active model back to v1" in captured.err
        assert "rolled_back v1" in captured.out


class TestValidation:
    def test_canary_floor_requires_integrity(self, capsys):
        assert main(["monitor", "--canary-floor", "0.9"]) == 2
        assert "--canary-floor requires --integrity" in capsys.readouterr().err

    def test_lineage_out_requires_integrity(self, capsys):
        assert main(["monitor", "--lineage-out", "x.json"]) == 2
        assert "--lineage-out requires --integrity" in capsys.readouterr().err

    def test_model_rollback_requires_integrity(self, capsys):
        assert main(["monitor", "--model-rollback", "1"]) == 2
        assert (
            "--model-rollback requires --integrity" in capsys.readouterr().err
        )

    def test_model_rollback_requires_resume(self, capsys):
        assert main(["monitor", "--integrity", "--model-rollback", "1"]) == 2
        assert "requires --resume or --recover" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "mode",
        [
            ["--eventtime", "--recover"],
            ["--shards", "2", "--resume"],
            ["--elastic", "--recover"],
        ],
    )
    def test_model_rollback_needs_single_service(self, tmp_path, mode, capsys):
        argv = ["monitor", "--integrity", "--model-rollback", "1", *mode]
        assert main(argv + ["--wal-dir", str(tmp_path / "w")]) == 2
        assert (
            "--model-rollback needs the single-service monitor"
            in capsys.readouterr().err
        )

    def test_training_window_floor(self, capsys):
        assert main(["monitor", "--training-window", "1"]) == 2
        assert "--training-window must be >= 2" in capsys.readouterr().err

    def test_unknown_ramp_consumer(self, cer_file, capsys):
        args = _monitor_args(cer_file)
        args[args.index(ATTACKER)] = "ghost"
        assert main(args) == 2
        assert "unknown consumer 'ghost'" in capsys.readouterr().err

    def test_bad_ramp_decay(self, cer_file, capsys):
        args = _monitor_args(cer_file)
        args[args.index(str(RAMP_DECAY))] = "1.5"
        assert main(args) == 2
        assert "weekly_decay" in capsys.readouterr().err

    def test_bad_canary_floor_value(self, capsys):
        assert (
            main(["monitor", "--integrity", "--canary-floor", "2.0"]) == 2
        )
        assert "canary_floor" in capsys.readouterr().err
