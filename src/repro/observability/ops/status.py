"""Text status dashboard for fleet operators.

Renders the ops-plane artefacts — fleet manifest, health report, SLO
report, hot-stage profile — as aligned plain-text tables for the
``repro-monitor status`` CLI.  Everything here consumes plain dicts
(the JSON written by ``--health-out``/``--slo-out``/``--profile-out``
or live ``to_dict()`` payloads), so the dashboard works offline against
artefacts from a crashed or remote fleet.
"""

from __future__ import annotations

from typing import Mapping, Sequence

__all__ = ["render_status"]


def _coerce(payload) -> Mapping | None:
    if payload is None:
        return None
    if hasattr(payload, "to_dict"):
        payload = payload.to_dict()
    return payload if isinstance(payload, Mapping) else None


def _table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    cells = [[str(h) for h in headers]]
    cells.extend([str(value) for value in row] for row in rows)
    widths = [
        max(len(row[i]) for row in cells) for i in range(len(headers))
    ]
    lines = []
    for n, row in enumerate(cells):
        lines.append(
            "  ".join(value.ljust(width) for value, width in zip(row, widths)).rstrip()
        )
        if n == 0:
            lines.append("  ".join("-" * width for width in widths))
    return "\n".join(lines)


def _human_bytes(n: float) -> str:
    value = float(n)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if value < 1024 or unit == "GiB":
            return f"{value:.0f}{unit}" if unit == "B" else f"{value:.1f}{unit}"
        value /= 1024
    return f"{value:.1f}GiB"  # pragma: no cover - unreachable


def _render_manifest(manifest: Mapping) -> list[str]:
    shards = manifest.get("shards", {})
    lines = [
        "FLEET TOPOLOGY",
        f"  shards: {len(shards)}   cycle: {manifest.get('cycle', '?')}",
    ]
    pending = manifest.get("pending")
    if pending:
        lines.append("  ! handoff pending (crash mid-handoff; will roll forward)")
    rows = [
        (name, entry.get("epoch", "?"), len(entry.get("consumers", ())))
        for name, entry in sorted(shards.items())
    ]
    lines.append(_indent(_table(("SHARD", "EPOCH", "CONSUMERS"), rows)))
    return lines


def _render_health(health: Mapping) -> list[str]:
    verdict = "READY" if health.get("fleet_ready") else "NOT READY"
    unreachable = health.get("states", {}).get("unreachable", 0)
    if unreachable:
        # A partition is a different emergency from a hung worker:
        # nothing to restart, everything to wait out (or reroute).
        verdict += f"  ({unreachable} shard(s) UNREACHABLE — partition?)"
    lines = [
        f"FLEET HEALTH: {verdict}",
        f"  frontier: {health.get('frontier', '?')}"
        f"   low watermark: {health.get('low_watermark', '?')}"
        f"   backlog: {health.get('backlog_cycles', 0)} cycles"
        f"   restarts: {health.get('restarts_total', 0)}"
        f"   handoffs: {health.get('handoffs_total', 0)}",
    ]
    rows = []
    for shard in health.get("shards", ()):
        version = shard.get("model_version")
        rows.append(
            (
                shard.get("name", "?"),
                shard.get("state", "?"),
                "yes" if shard.get("ready") else "NO",
                shard.get("lag_cycles", "?"),
                shard.get("pending_cycles", "?"),
                _human_bytes(shard.get("wal_bytes", 0)),
                shard.get("restarts", "?"),
                shard.get("epoch", "?"),
                shard.get("consumers", "?"),
                f"v{version}" if version is not None else "-",
                "; ".join(shard.get("reasons", ())) or "-",
            )
        )
    lines.append(
        _indent(
            _table(
                (
                    "SHARD",
                    "STATE",
                    "READY",
                    "LAG",
                    "BACKLOG",
                    "WAL",
                    "RESTARTS",
                    "EPOCH",
                    "CONSUMERS",
                    "MODEL",
                    "REASONS",
                ),
                rows,
            )
        )
    )
    events = [
        (shard.get("name", "?"), shard["model_event"])
        for shard in health.get("shards", ())
        if shard.get("model_event")
    ]
    if events:
        # The promotion/rollback trail is operator-critical evidence
        # (a shard quietly rolling back is a poisoning indicator), so
        # it gets its own lines rather than crowding the REASONS cell.
        lines.append("  model events:")
        lines.extend(f"    {name}: {event}" for name, event in events)
    return lines


def _render_slo(slo: Mapping) -> list[str]:
    verdict = "HEALTHY" if slo.get("healthy") else "BURNING"
    lines = [
        f"SLO STANDING: {verdict}"
        f"   (windows: short={slo.get('short_window')}, "
        f"long={slo.get('long_window')} observations)",
    ]
    rows = []
    for entry in slo.get("objectives", ()):
        rows.append(
            (
                entry.get("name", "?"),
                entry.get("kind", "?"),
                f"{entry.get('target', 0) * 100:g}%",
                f"{entry.get('compliance', 0) * 100:.3f}%",
                f"{entry.get('burn_rate_short', 0):.2f}x",
                f"{entry.get('burn_rate_long', 0):.2f}x",
                f"{entry.get('budget_remaining', 0) * 100:.1f}%",
                "VIOLATED" if entry.get("violated") else "ok",
            )
        )
    lines.append(
        _indent(
            _table(
                (
                    "OBJECTIVE",
                    "KIND",
                    "TARGET",
                    "COMPLIANCE",
                    "BURN(S)",
                    "BURN(L)",
                    "BUDGET LEFT",
                    "STATUS",
                ),
                rows,
            )
        )
    )
    return lines


def _render_profile(profile: Mapping, top: int = 10) -> list[str]:
    rows = [
        (
            entry.get("stage", "?"),
            entry.get("calls", "?"),
            f"{entry.get('self_s', 0):.4f}s",
            f"{entry.get('cum_s', 0):.4f}s",
        )
        for entry in profile.get("hot_stages", ())[:top]
    ]
    return [
        "HOT STAGES",
        _indent(_table(("STAGE", "CALLS", "SELF_S", "CUM_S"), rows)),
    ]


def _indent(block: str, by: str = "  ") -> str:
    return "\n".join(by + line for line in block.splitlines())


def render_status(
    manifest=None,
    health=None,
    slo=None,
    profile=None,
    top: int = 10,
) -> str:
    """The operator dashboard; omits sections whose payload is absent."""
    sections: list[list[str]] = []
    manifest = _coerce(manifest)
    health = _coerce(health)
    slo = _coerce(slo)
    profile = _coerce(profile)
    if manifest is not None:
        sections.append(_render_manifest(manifest))
    if health is not None:
        sections.append(_render_health(health))
    if slo is not None:
        sections.append(_render_slo(slo))
    if profile is not None:
        sections.append(_render_profile(profile, top))
    if not sections:
        return "nothing to show (no manifest, health, SLO, or profile)\n"
    return "\n\n".join("\n".join(section) for section in sections) + "\n"
