"""Elastic scale-out: consistent-hash placement, shard handoff, fleet.

The :mod:`repro.scaleout` package runs the monitor as a self-healing
fleet of shard workers that can grow and shrink while it runs; every
sharded ``monitor`` run (``--shards N`` or ``--elastic``) uses it:

* :mod:`~repro.scaleout.ring` — consistent-hash placement of consumers
  onto shards (minimal movement when the shard set changes);
* :mod:`~repro.scaleout.handoff` — the snapshot+WAL handoff protocol,
  ownership-epoch fencing, and the atomic fleet manifest;
* :mod:`~repro.scaleout.plane` — the merged fleet-wide verdict and
  metric plane (bit-identical to an unsharded run);
* :mod:`~repro.scaleout.fleet` — :class:`ElasticFleet`, which ties the
  three together with per-shard watermarks and self-healing dispatch.
"""

from repro.scaleout.ring import (
    DEFAULT_RING_SEED,
    DEFAULT_VNODES,
    HashRing,
    balanced_assignments,
)
from repro.scaleout.handoff import (
    HANDOFF_PHASES,
    FencedMonitor,
    HandoffRecord,
    read_manifest,
    write_manifest,
)
from repro.scaleout.plane import (
    FleetWeekReport,
    merge_metrics,
    merge_weekly_reports,
    merged_signature,
    report_signature,
)
from repro.scaleout.fleet import ElasticFleet, ShardWorker

__all__ = [
    "DEFAULT_RING_SEED",
    "DEFAULT_VNODES",
    "ElasticFleet",
    "FencedMonitor",
    "FleetWeekReport",
    "HANDOFF_PHASES",
    "HandoffRecord",
    "HashRing",
    "ShardWorker",
    "balanced_assignments",
    "merge_metrics",
    "merge_weekly_reports",
    "merged_signature",
    "read_manifest",
    "report_signature",
    "write_manifest",
]
