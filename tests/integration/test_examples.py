"""Smoke tests: every example script must run end-to-end.

The examples are part of the public deliverable; this guards them
against API drift the way library tests guard the modules.
"""

import contextlib
import io
import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parents[2] / "examples"

#: Examples that run unmodified in a few seconds.
QUICK_EXAMPLES = (
    "quickstart.py",
    "balance_check_investigation.py",
    "adr_price_attack.py",
    "layered_defense.py",
    "attack_planning.py",
    "fleet_rebalance.py",
)


def _run_example(name: str, argv: list[str] | None = None) -> None:
    path = EXAMPLES_DIR / name
    assert path.exists(), f"example missing: {path}"
    old_argv = sys.argv
    sys.argv = [str(path)] + (argv or [])
    try:
        runpy.run_path(str(path), run_name="__main__")
    except SystemExit as exc:  # argparse-based examples exit cleanly
        assert exc.code in (None, 0)
    finally:
        sys.argv = old_argv


@pytest.mark.parametrize("name", QUICK_EXAMPLES)
def test_quick_example_runs(name, capsys):
    _run_example(name)
    out = capsys.readouterr().out
    assert out.strip(), f"{name} produced no output"


def test_detector_shootout_small_scale(capsys):
    _run_example(
        "detector_shootout.py", ["--consumers", "4", "--vectors", "2"]
    )
    out = capsys.readouterr().out
    assert "Table II" in out
    assert "Table III" in out


@pytest.fixture(scope="module")
def online_monitoring_output():
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        _run_example("online_monitoring.py")
    return buffer.getvalue()


def test_online_monitoring_runs(online_monitoring_output):
    assert "suspected victims" in online_monitoring_output


def test_online_monitoring_verdicts_are_pinned(online_monitoring_output):
    """The example's clean, complete cycles are the zero-gap case of the
    firewalled, gap-tolerant ingest: its verdicts stay what they were
    when the service still had a strict mode."""
    lines = online_monitoring_output.splitlines()
    assert (
        "suspected victims:   ('house-d', 'house-a', 'house-b')" in lines
    )
    assert "suspected attackers: ('house-b',)" in lines
