"""Low-overhead sampling stage profiler for the hot path.

Tracing every ingest cycle with :class:`~repro.observability.tracing.Span`
objects would allocate a span per cycle and hold them forever — the hot
path runs millions of cycles.  :class:`StageProfiler` instead samples:
one top-level stage window in every ``sample_every`` is timed with
``perf_counter``; the rest pay only an integer increment and a branch.
Nested stages inside a sampled window are timed too, so the profile
separates *cumulative* time (stage plus everything under it) from
*self* time (stage minus its children) — exactly the evidence the
columnar hot-path refactor needs to pick its targets.

Counts are exact; seconds are extrapolated from the sampled windows
(``est_*`` fields), with the raw sampled sums preserved alongside so
the extrapolation is auditable.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager, nullcontext
from typing import Callable, Iterator

from repro.errors import ConfigurationError

__all__ = ["NULL_STAGE", "StageProfiler", "maybe_stage"]

#: The no-op stage of an absent profiler; ``nullcontext`` is stateless,
#: so one shared instance is safely re-entered from nested stages.
NULL_STAGE = nullcontext()


def maybe_stage(profiler: "StageProfiler | None", name: str):
    """``profiler.stage(name)``, or :data:`NULL_STAGE` when profiling is off."""
    return profiler.stage(name) if profiler is not None else NULL_STAGE


class _StageStats:
    __slots__ = ("calls", "sampled", "cum_s", "self_s")

    def __init__(self) -> None:
        self.calls = 0
        self.sampled = 0
        self.cum_s = 0.0
        self.self_s = 0.0


class StageProfiler:
    """Sampling per-stage wall-time profiler.

    Parameters
    ----------
    sample_every:
        Sample one top-level stage entry out of every this many; nested
        stages inherit the enclosing window's sampling decision so
        self-time subtraction stays consistent.  ``1`` profiles every
        call (useful in tests).
    clock:
        Injectable monotonic clock (seconds); defaults to
        ``time.perf_counter``.
    """

    def __init__(
        self,
        sample_every: int = 16,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        if sample_every < 1:
            raise ConfigurationError(
                f"sample_every must be >= 1, got {sample_every}"
            )
        self.sample_every = int(sample_every)
        self._clock = clock
        self._stats: dict[str, _StageStats] = {}
        self._tick = 0
        self._depth = 0
        self._sampling = False
        # While sampling: one frame per open stage [name, start, child_s].
        self._frames: list[list] = []

    @contextmanager
    def stage(self, name: str) -> Iterator[None]:
        """Time one stage window (cheap no-op on unsampled windows)."""
        stats = self._stats.get(name)
        if stats is None:
            stats = self._stats[name] = _StageStats()
        stats.calls += 1
        if self._depth == 0:
            self._sampling = self._tick % self.sample_every == 0
            self._tick += 1
        self._depth += 1
        if not self._sampling:
            try:
                yield
            finally:
                self._depth -= 1
            return
        frame = [name, self._clock(), 0.0]
        self._frames.append(frame)
        try:
            yield
        finally:
            elapsed = self._clock() - frame[1]
            self._frames.pop()
            stats.sampled += 1
            stats.cum_s += elapsed
            stats.self_s += elapsed - frame[2]
            if self._frames:
                self._frames[-1][2] += elapsed
            self._depth -= 1
            if self._depth == 0:
                self._sampling = False

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def snapshot(self) -> dict[str, dict]:
        """Per-stage stats with extrapolated totals, by stage name."""
        out: dict[str, dict] = {}
        for name, stats in self._stats.items():
            scale = stats.calls / stats.sampled if stats.sampled else 0.0
            out[name] = {
                "calls": stats.calls,
                "sampled": stats.sampled,
                "cum_s": stats.cum_s,
                "self_s": stats.self_s,
                "est_cum_s": stats.cum_s * scale,
                "est_self_s": stats.self_s * scale,
            }
        return out

    def hot_stages(self, n: int = 10) -> list[dict]:
        """Top ``n`` stages by estimated self time, hottest first."""
        ranked = [
            {"stage": name, **stats} for name, stats in self.snapshot().items()
        ]
        ranked.sort(key=lambda item: item["est_self_s"], reverse=True)
        return ranked[: max(0, n)]

    def to_dict(self, top: int = 10) -> dict:
        return {
            "sample_every": self.sample_every,
            "stages": self.snapshot(),
            "hot_stages": self.hot_stages(top),
        }

    def to_json(self, indent: int | None = 2, top: int = 10) -> str:
        return json.dumps(self.to_dict(top), indent=indent)

    def write(self, path: str | os.PathLike, top: int = 10) -> None:
        from repro.storage.io import atomic_write_json

        atomic_write_json(path, self.to_dict(top), site="export.profile")
        # Open frames still reference their old stats objects via name
        # lookups at exit — recreate entries lazily; counts restart.
