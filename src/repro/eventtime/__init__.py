"""Event-time robustness for out-of-order AMI delivery.

Separates *event time* (the half-hour slot a reading belongs to) from
*processing time* (when the head-end delivered it): a per-consumer
low-watermark tracker with a bounded lateness allowance drives a
reorder buffer that releases slot-contiguous runs to the monitoring
service; readings arriving after their slot was released — but within a
grace window — trigger reconciliation and versioned verdict revisions;
anything later is quarantined as ``too_late``.
"""

from repro.eventtime.config import EventTimeConfig
from repro.eventtime.ingestion import (
    DeliveryOutcome,
    EventTimeIngestor,
    replay_eventtime,
)
from repro.eventtime.reorder import OfferOutcome, ReorderBuffer, StampedReading
from repro.eventtime.revision import RevisionKind, RevisionLog, VerdictRevision
from repro.eventtime.watermark import WatermarkTracker

__all__ = [
    "DeliveryOutcome",
    "EventTimeConfig",
    "EventTimeIngestor",
    "OfferOutcome",
    "ReorderBuffer",
    "RevisionKind",
    "RevisionLog",
    "StampedReading",
    "VerdictRevision",
    "WatermarkTracker",
    "replay_eventtime",
]
