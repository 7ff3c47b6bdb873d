"""Versioned verdict revisions for late-reading reconciliation.

When a reading arrives after its week has already been scored but within
the grace window, the week is re-assessed — and if the verdict *changes*
(a consumer newly flagged, or a flag withdrawn), the change must be an
auditable record, not a silent overwrite: an operator who acted on the
original verdict needs to see what changed, when, and why.  Each change
is a :class:`VerdictRevision` carrying before/after evidence and a
monotonically increasing version per ``(week, consumer)``, collected in
a :class:`RevisionLog` that renders a JSON report for the CLI's
``--revisions-out`` and the CI equivalence artifacts.
"""

from __future__ import annotations

import enum
import os
from dataclasses import dataclass, field


class RevisionKind(enum.Enum):
    """The direction a reconciled verdict moved."""

    #: Previously clean (or suppressed) consumer-week now flags theft.
    UPGRADE = "upgrade"
    #: Previously flagged consumer-week no longer flags after repair.
    DOWNGRADE = "downgrade"


@dataclass(frozen=True)
class VerdictRevision:
    """One audited change to an already-published weekly verdict.

    ``version`` starts at 1 for a ``(week, consumer)``'s first revision
    and increases by one per subsequent revision of the same pair —
    consumers of the log can totally order revisions without trusting
    wall-clock time.  ``cycle`` is the released-slot count at which the
    triggering late reading was reconciled (processing time).
    """

    week_index: int
    consumer_id: str
    version: int
    kind: RevisionKind
    reason: str
    cycle: int
    flagged_before: bool
    flagged_after: bool
    score_before: float | None = None
    score_after: float | None = None
    coverage_before: float | None = None
    coverage_after: float | None = None


@dataclass
class RevisionLog:
    """Append-only, monotonically versioned record of verdict changes."""

    revisions: list[VerdictRevision] = field(default_factory=list)
    _versions: dict[tuple[int, str], int] = field(default_factory=dict)

    def record(
        self,
        week_index: int,
        consumer_id: str,
        kind: RevisionKind,
        reason: str,
        cycle: int,
        flagged_before: bool,
        flagged_after: bool,
        score_before: float | None = None,
        score_after: float | None = None,
        coverage_before: float | None = None,
        coverage_after: float | None = None,
    ) -> VerdictRevision:
        """Append one revision, assigning the next version for its pair."""
        key = (int(week_index), consumer_id)
        version = self._versions.get(key, 0) + 1
        self._versions[key] = version
        revision = VerdictRevision(
            week_index=int(week_index),
            consumer_id=consumer_id,
            version=version,
            kind=kind,
            reason=reason,
            cycle=int(cycle),
            flagged_before=bool(flagged_before),
            flagged_after=bool(flagged_after),
            score_before=score_before,
            score_after=score_after,
            coverage_before=coverage_before,
            coverage_after=coverage_after,
        )
        self.revisions.append(revision)
        return revision

    def __len__(self) -> int:
        return len(self.revisions)

    def counts_by_kind(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for revision in self.revisions:
            counts[revision.kind.value] = counts.get(revision.kind.value, 0) + 1
        return counts

    def current_versions(self) -> dict[str, int]:
        """Latest version per pair, keyed ``"week:consumer"`` (JSON-able)."""
        return {
            f"{week}:{cid}": version
            for (week, cid), version in sorted(self._versions.items())
        }

    def report(self) -> dict:
        """Aggregate report (JSON-able) for operators and CI artifacts."""
        return {
            "total": len(self.revisions),
            "by_kind": self.counts_by_kind(),
            "current_versions": self.current_versions(),
            "revisions": [
                {
                    "week": r.week_index,
                    "consumer": r.consumer_id,
                    "version": r.version,
                    "kind": r.kind.value,
                    "reason": r.reason,
                    "cycle": r.cycle,
                    "flagged_before": r.flagged_before,
                    "flagged_after": r.flagged_after,
                    "score_before": r.score_before,
                    "score_after": r.score_after,
                    "coverage_before": r.coverage_before,
                    "coverage_after": r.coverage_after,
                }
                for r in self.revisions
            ],
        }

    def write_report(self, path: str | os.PathLike) -> None:
        """Atomically write :meth:`report` as JSON (NaN/inf as strings)."""
        from repro.storage.io import atomic_write_json

        def _default(value: object) -> object:
            return str(value)

        atomic_write_json(
            path,
            self.report(),
            site="export.revisions",
            default=_default,
            allow_nan=True,
        )

    def state_dict(self) -> dict:
        return {"report": self.report()}

    @classmethod
    def from_state(cls, state: dict) -> "RevisionLog":
        log = cls()
        for r in state["report"]["revisions"]:
            revision = VerdictRevision(
                week_index=int(r["week"]),
                consumer_id=str(r["consumer"]),
                version=int(r["version"]),
                kind=RevisionKind(r["kind"]),
                reason=str(r["reason"]),
                cycle=int(r["cycle"]),
                flagged_before=bool(r["flagged_before"]),
                flagged_after=bool(r["flagged_after"]),
                score_before=r["score_before"],
                score_after=r["score_after"],
                coverage_before=r["coverage_before"],
                coverage_after=r["coverage_after"],
            )
            log.revisions.append(revision)
            key = (revision.week_index, revision.consumer_id)
            log._versions[key] = max(
                log._versions.get(key, 0), revision.version
            )
        return log
