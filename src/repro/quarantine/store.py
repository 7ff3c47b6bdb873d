"""Quarantine storage for readings rejected by the integrity firewall.

A malformed reading must never be silently dropped: operators need to
know *which* meters send garbage, *what kind* of garbage, and *how
often* — a meter that suddenly starts emitting out-of-range values is
either failing hardware or an attacker probing the detector.  The
:class:`QuarantineStore` keeps every rejected reading together with a
machine-readable reason code so the evidence survives for forensics,
and renders an aggregate report for the CLI's ``--quarantine-report``.
"""

from __future__ import annotations

import enum
import os
from collections import Counter
from dataclasses import dataclass, field


class QuarantineReason(enum.Enum):
    """Why a reading was refused entry to the detection pipeline."""

    #: NaN or +/-inf value (corrupted frame, failed parse).
    NON_FINITE = "non_finite"
    #: Negative kWh (physically impossible for a consumption register).
    NEGATIVE = "negative"
    #: Finite but beyond the configured physical maximum per slot.
    OUT_OF_RANGE = "out_of_range"
    #: Re-delivery of a (meter, slot) pair already ingested.
    DUPLICATE = "duplicate"
    #: Declared slot ahead of the polling clock (meter clock skew).
    CLOCK_SKEW = "clock_skew"
    #: Reading from the repeated local-time hour of a DST fall-back.
    DST_FOLD = "dst_fold"
    #: Late arrival past the event-time grace window: the slot's week is
    #: already finalized, so the reading can no longer be reconciled.
    TOO_LATE = "too_late"
    #: A whole training week excluded by the integrity drift sentinels:
    #: its distribution drifted from the consumer's clean reference
    #: (PSI/CUSUM alarm — the poisoned-baseline ramp signature).  The
    #: week still scores and bills; it is only barred from training.
    POISON_SUSPECT = "poison_suspect"


@dataclass(frozen=True)
class QuarantinedReading:
    """One rejected reading with full forensic context."""

    consumer_id: str
    value: float
    cycle: int
    reason: QuarantineReason
    declared_slot: int | None = None
    detail: str = ""


@dataclass
class QuarantineStore:
    """Append-only evidence locker for firewall rejects.

    ``max_records`` bounds memory on a long-running service: once full,
    new rejects still count toward the totals but their full records are
    dropped (``records_dropped`` says how many).  Totals therefore stay
    exact even when the evidence list is truncated.
    """

    max_records: int | None = None
    records: list[QuarantinedReading] = field(default_factory=list)
    records_dropped: int = 0
    _reason_counts: Counter = field(default_factory=Counter)
    _consumer_counts: Counter = field(default_factory=Counter)

    def add(self, record: QuarantinedReading) -> None:
        self._reason_counts[record.reason.value] += 1
        self._consumer_counts[record.consumer_id] += 1
        if (
            self.max_records is not None
            and len(self.records) >= self.max_records
        ):
            self.records_dropped += 1
            return
        self.records.append(record)

    def merge(self, other: "QuarantineStore") -> None:
        """Fold ``other``'s rejects into this store (fleet-wide report)."""
        self.records.extend(other.records)
        self.records_dropped += other.records_dropped
        self._reason_counts.update(other._reason_counts)
        self._consumer_counts.update(other._consumer_counts)

    def __len__(self) -> int:
        return int(sum(self._reason_counts.values()))

    def counts_by_reason(self) -> dict[str, int]:
        """Total rejects per reason code (exact, never truncated)."""
        return {
            reason.value: int(self._reason_counts.get(reason.value, 0))
            for reason in QuarantineReason
            if reason.value in self._reason_counts
        }

    def counts_by_consumer(self) -> dict[str, int]:
        return dict(self._consumer_counts)

    def report(self) -> dict:
        """Aggregate report (JSON-able) for operators and CI artifacts."""
        return {
            "total": len(self),
            "by_reason": self.counts_by_reason(),
            "by_consumer": {
                cid: count
                for cid, count in sorted(
                    self._consumer_counts.items(),
                    key=lambda item: (-item[1], item[0]),
                )
            },
            "records_kept": len(self.records),
            "records_dropped": self.records_dropped,
            "records": [
                {
                    "consumer": r.consumer_id,
                    "value": r.value,
                    "cycle": r.cycle,
                    "reason": r.reason.value,
                    "declared_slot": r.declared_slot,
                    "detail": r.detail,
                }
                for r in self.records
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
            site="export.quarantine",
            default=_default,
            allow_nan=True,
        )
