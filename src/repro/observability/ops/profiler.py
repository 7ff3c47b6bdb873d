"""Per-stage wall-time profile of the hot path.

Tracing every ingest cycle with :class:`~repro.observability.tracing.Span`
objects would allocate a span per cycle and hold them forever — the hot
path runs millions of cycles.  :class:`StageProfiler` keeps O(stages)
state instead: per stage, the exact number of windows, their cumulative
seconds (stage plus everything under it) and their *self* seconds (stage
minus its nested children).

The profiler reads no clock.  It is a subscriber of
:meth:`~repro.core.online.TheftMonitoringService.stage`, which times
every stage window once and hands the same elapsed value to the
``fdeta_stage_seconds`` histogram, to this profiler and to the cycle's
deadline — so a stage's ``calls`` and ``cum_s`` here equal that
histogram's count and sum.
"""

from __future__ import annotations

import json
import os

__all__ = ["StageProfiler"]


class _StageStats:
    __slots__ = ("calls", "cum_s", "self_s")

    def __init__(self) -> None:
        self.calls = 0
        self.cum_s = 0.0
        self.self_s = 0.0


class StageProfiler:
    """Exact per-stage calls, cumulative seconds and self seconds."""

    def __init__(self) -> None:
        self._stats: dict[str, _StageStats] = {}
        # One entry per open window: seconds its closed children took.
        self._child_s: list[float] = []

    def enter(self) -> None:
        """A stage window opened (nested windows stack)."""
        self._child_s.append(0.0)

    def leave(self, name: str, elapsed: float) -> None:
        """The innermost open window, stage ``name``, closed after
        ``elapsed`` seconds."""
        stats = self._stats.get(name)
        if stats is None:
            stats = self._stats[name] = _StageStats()
        stats.calls += 1
        stats.cum_s += elapsed
        stats.self_s += elapsed - self._child_s.pop()
        if self._child_s:
            self._child_s[-1] += elapsed

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def snapshot(self) -> dict[str, dict]:
        """Per-stage ``calls``/``cum_s``/``self_s``, by stage name."""
        return {
            name: {
                "calls": stats.calls,
                "cum_s": stats.cum_s,
                "self_s": stats.self_s,
            }
            for name, stats in self._stats.items()
        }

    def hot_stages(self, n: int = 10) -> list[dict]:
        """Top ``n`` stages by self time, hottest first."""
        ranked = [
            {"stage": name, **stats} for name, stats in self.snapshot().items()
        ]
        ranked.sort(key=lambda item: item["self_s"], reverse=True)
        return ranked[: max(0, n)]

    def to_dict(self, top: int = 10) -> dict:
        return {"stages": self.snapshot(), "hot_stages": self.hot_stages(top)}

    def to_json(self, indent: int | None = 2, top: int = 10) -> str:
        return json.dumps(self.to_dict(top), indent=indent)

    def write(self, path: str | os.PathLike, top: int = 10) -> None:
        from repro.storage.io import atomic_write_json

        atomic_write_json(path, self.to_dict(top), site="export.profile")
