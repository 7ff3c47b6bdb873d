"""Overload control: backpressure, shedding, deadlines.

This package keeps the monitoring pipeline *bounded* under read storms
and overload:

* :mod:`repro.loadcontrol.queue` — bounded ingestion queues with an
  explicit :class:`BackpressureSignal` back to the producer;
* :mod:`repro.loadcontrol.shedding` — priority-tiered load shedding
  (suspects score first; healthy consumers degrade to coverage-counted
  gaps);
* :mod:`repro.loadcontrol.deadline` — per-cycle time budgets threaded
  through every pipeline stage.

The self-healing shard fleet these controls sit in front of is
:class:`repro.scaleout.ElasticFleet`.
"""

from repro.loadcontrol.config import LoadControlConfig, ShedPolicy
from repro.loadcontrol.deadline import Deadline, STAGE_SECONDS_BUCKETS
from repro.loadcontrol.queue import (
    BackpressureSignal,
    BoundedCycleQueue,
    BufferedIngestor,
)
from repro.loadcontrol.shedding import LoadShedder, ShedTier

__all__ = [
    "BackpressureSignal",
    "BoundedCycleQueue",
    "BufferedIngestor",
    "Deadline",
    "LoadControlConfig",
    "LoadShedder",
    "STAGE_SECONDS_BUCKETS",
    "ShedPolicy",
    "ShedTier",
]
