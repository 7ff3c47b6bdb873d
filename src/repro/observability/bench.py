"""Machine-readable performance records for the benchmark harness.

The benchmark suite asserts the paper's qualitative shapes; this module
makes the *speed* of those runs a first-class artefact.  Each call to
:func:`write_bench_record` appends one timing record to
``BENCH_<name>.json`` so the performance trajectory of the codebase
accumulates across runs instead of evaporating with the process:

    {"name": "evaluation", "records": [
        {"seconds": 12.3, "recorded_at": "2026-08-05T...",
         "schema": 2, "git_sha": "753336f", "python": "3.12.4",
         "machine": "x86_64", "meta": {...}},
        ...
    ]}

Every record is stamped uniformly: a schema version (bump when the
record layout changes), the git SHA the run was built from (so a
trajectory point is attributable to a commit), and the interpreter /
machine it ran on (so cross-host points are not naively compared).

Timing uses :class:`BenchTimer` (``time.perf_counter``, monotonic); the
record's ``recorded_at`` wall-clock stamp exists only to order the
trajectory, never to measure with.

:func:`bench_diff` compares two trajectories (e.g. the committed
baseline vs. a fresh CI run) series-by-series and flags metric
regressions beyond a tolerance — the teeth behind the BENCH files.
Within a record's ``meta``, non-float values (stage names, consumer
counts, seeds) identify the *series*; float values are the *metrics*
compared between runs, alongside the record's own ``seconds``.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Mapping

from repro.errors import ConfigurationError

__all__ = [
    "BenchDiff",
    "BenchTimer",
    "bench_diff",
    "write_bench_record",
]

#: Bump when the record layout changes; readers key behaviour off it.
SCHEMA_VERSION = 2

#: Metric-name fragments that mean "bigger is better".
_HIGHER_BETTER = ("per_s", "per_second", "throughput", "rate", "hit")
#: Metric-name fragments that mean "smaller is better".
_LOWER_BETTER = (
    "seconds",
    "latency",
    "overhead",
    "ratio",
    "bytes",
    "lag",
)

_git_sha_cache: str | None | bool = False  # False = not looked up yet


class BenchTimer:
    """Context manager measuring elapsed seconds with ``perf_counter``."""

    def __init__(self) -> None:
        self._start: float | None = None
        self.elapsed: float = 0.0

    def __enter__(self) -> "BenchTimer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        assert self._start is not None
        self.elapsed = time.perf_counter() - self._start


def _git(*args: str) -> str | None:
    """stdout of one git command, or None when it fails."""
    try:
        out = subprocess.run(
            ["git", *args],
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _git_sha() -> str | None:
    """The working tree's short git SHA (cached; None outside a repo).

    A tree with uncommitted changes to tracked files is stamped
    ``<sha>+dirty``: its figures were not measured on that commit.
    ``REPRO_GIT_SHA`` overrides the lookup — CI detached checkouts and
    containers without git stay attributable.
    """
    global _git_sha_cache
    if _git_sha_cache is not False:
        return _git_sha_cache  # type: ignore[return-value]
    override = os.environ.get("REPRO_GIT_SHA")
    if override:
        _git_sha_cache = override
        return override
    sha = _git("rev-parse", "--short", "HEAD")
    if sha and _git("status", "--porcelain", "--untracked-files=no"):
        sha += "+dirty"
    _git_sha_cache = sha or None
    return _git_sha_cache


def _record_path(name: str, directory: str | os.PathLike | None) -> str:
    if not name or any(c in name for c in "/\\"):
        raise ConfigurationError(f"invalid bench record name {name!r}")
    base = os.fspath(directory) if directory is not None else "."
    return os.path.join(base, f"BENCH_{name}.json")


def write_bench_record(
    name: str,
    seconds: float,
    meta: Mapping[str, object] | None = None,
    directory: str | os.PathLike | None = None,
) -> str:
    """Append one timing record to ``BENCH_<name>.json``; returns the path.

    The file holds the full trajectory (a list of records); corrupt or
    foreign files are replaced rather than crashing the benchmark run.
    """
    path = _record_path(name, directory)
    payload: dict = {"name": name, "records": []}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            existing = json.load(handle)
        if isinstance(existing, dict) and isinstance(
            existing.get("records"), list
        ):
            payload = existing
    except (FileNotFoundError, json.JSONDecodeError):
        pass
    payload["name"] = name
    payload["records"].append(
        {
            "seconds": float(seconds),
            "recorded_at": datetime.now(timezone.utc).isoformat(),
            "schema": SCHEMA_VERSION,
            "git_sha": _git_sha(),
            "python": platform.python_version(),
            "machine": platform.machine(),
            "meta": dict(meta) if meta else {},
        }
    )
    from repro.storage.io import atomic_write_json

    atomic_write_json(path, payload, site="bench.record")
    return path


# ----------------------------------------------------------------------
# Trajectory comparison (the perf-regression gate)
# ----------------------------------------------------------------------


def _load_records(source) -> list[dict]:
    """Records from a path, a payload dict, or a record list."""
    if isinstance(source, (str, os.PathLike)):
        with open(os.fspath(source), "r", encoding="utf-8") as handle:
            source = json.load(handle)
    if isinstance(source, Mapping):
        source = source.get("records", [])
    if not isinstance(source, list):
        raise ConfigurationError(
            f"not a bench trajectory: {type(source).__name__}"
        )
    return [r for r in source if isinstance(r, Mapping)]


def _series_key(record: Mapping) -> str:
    """Identity of one measurement series within a trajectory.

    Non-float meta values identify *what* was measured (stage names,
    consumer counts, seeds); floats are measurements and stay out of
    the key.
    """
    meta = record.get("meta")
    if not isinstance(meta, Mapping):
        return "default"
    identity = {
        k: v
        for k, v in sorted(meta.items())
        if isinstance(v, (str, bool)) or isinstance(v, int)
    }
    return json.dumps(identity, sort_keys=True) if identity else "default"


def _metrics_of(record: Mapping) -> dict[str, float]:
    out = {"seconds": float(record.get("seconds", 0.0))}
    meta = record.get("meta")
    if isinstance(meta, Mapping):
        for key, value in meta.items():
            if isinstance(value, float) and not isinstance(value, bool):
                out[key] = value
    return out


def _direction(metric: str) -> str:
    lowered = metric.lower()
    if any(tag in lowered for tag in _HIGHER_BETTER):
        return "higher_better"
    if any(tag in lowered for tag in _LOWER_BETTER):
        return "lower_better"
    return "informational"


@dataclass(frozen=True)
class BenchDiff:
    """The per-metric comparison of two bench trajectories."""

    entries: tuple[dict, ...]
    tolerance: float

    @property
    def regressions(self) -> tuple[dict, ...]:
        return tuple(e for e in self.entries if e["regression"])

    @property
    def ok(self) -> bool:
        return not self.regressions

    def render(self) -> str:
        if not self.entries:
            return "no comparable series between the two trajectories\n"
        lines = []
        for entry in self.entries:
            if entry["regression"]:
                marker = "REGRESSION"
            elif entry["improvement"]:
                marker = "improved"
            else:
                marker = "ok"
            lines.append(
                f"{marker:>10}  {entry['series']}  {entry['metric']}: "
                f"{entry['old']:.6g} -> {entry['new']:.6g} "
                f"({entry['delta'] * 100:+.1f}%, {entry['direction']})"
            )
        verdict = (
            f"{len(self.regressions)} regression(s) beyond "
            f"{self.tolerance * 100:.0f}%"
            if self.regressions
            else f"no regressions beyond {self.tolerance * 100:.0f}%"
        )
        return "\n".join(lines) + f"\n{verdict}\n"


def bench_diff(old, new, tolerance: float = 0.2) -> BenchDiff:
    """Compare two trajectories; flag regressions beyond ``tolerance``.

    ``old`` and ``new`` each accept a ``BENCH_*.json`` path, a loaded
    payload dict, or a record list.  Series are matched by their
    non-float meta identity; within each matched series the *latest*
    record of each side is compared metric-by-metric.  A regression is
    a change beyond ``tolerance`` in a metric's bad direction
    (directions are inferred from the metric name; unrecognised metrics
    are reported but never gate).
    """
    if tolerance < 0:
        raise ConfigurationError(f"tolerance must be >= 0, got {tolerance}")
    old_latest: dict[str, Mapping] = {}
    for record in _load_records(old):
        old_latest[_series_key(record)] = record
    new_latest: dict[str, Mapping] = {}
    for record in _load_records(new):
        new_latest[_series_key(record)] = record
    entries: list[dict] = []
    for key in old_latest:
        if key not in new_latest:
            continue
        old_metrics = _metrics_of(old_latest[key])
        new_metrics = _metrics_of(new_latest[key])
        for metric in old_metrics:
            if metric not in new_metrics:
                continue
            before, after = old_metrics[metric], new_metrics[metric]
            delta = (after - before) / before if before else 0.0
            direction = _direction(metric)
            regression = (
                direction == "higher_better" and delta < -tolerance
            ) or (direction == "lower_better" and delta > tolerance)
            improvement = (
                direction == "higher_better" and delta > tolerance
            ) or (direction == "lower_better" and delta < -tolerance)
            entries.append(
                {
                    "series": key,
                    "metric": metric,
                    "old": before,
                    "new": after,
                    "delta": delta,
                    "direction": direction,
                    "regression": regression,
                    "improvement": improvement,
                }
            )
    entries.sort(key=lambda e: (not e["regression"], e["series"], e["metric"]))
    return BenchDiff(entries=tuple(entries), tolerance=float(tolerance))


def main(argv: list[str] | None = None) -> int:
    """CLI: ``python -m repro.observability.bench diff OLD NEW``."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro-bench", description="Bench trajectory tools."
    )
    sub = parser.add_subparsers(dest="command", required=True)
    diff = sub.add_parser(
        "diff", help="Compare two BENCH_*.json files; exit 1 on regression."
    )
    diff.add_argument("old", help="Baseline BENCH_*.json")
    diff.add_argument("new", help="Candidate BENCH_*.json")
    diff.add_argument(
        "--tolerance",
        type=float,
        default=0.2,
        help="Allowed fractional change in a metric's bad direction.",
    )
    args = parser.parse_args(argv)
    result = bench_diff(args.old, args.new, tolerance=args.tolerance)
    print(result.render(), end="")
    return 0 if result.ok else 1


if __name__ == "__main__":  # pragma: no cover - exercised via CI
    raise SystemExit(main())
