"""Fault tolerance for the online monitoring pipeline.

The paper frames F-DETA as "a centralized online algorithm that would run
at an electric utility's control center" (Section VII-A).  Real control
centres poll millions of meters over lossy PLC/mesh links for years at a
time, and an adversary can exploit availability gaps to mask injections;
graceful degradation under faults is therefore a correctness property of
the detector, not an operational nicety.  This subpackage supplies the
building blocks:

* :mod:`repro.resilience.circuit` — per-consumer circuit breakers that
  quarantine meters whose readings repeatedly go silent or fail
  validation, instead of letting them poison their detectors;
* :mod:`repro.resilience.config` — the knobs that govern degraded-mode
  ingestion in :class:`repro.core.online.TheftMonitoringService`;
* :mod:`repro.resilience.retry` — the bounded-retry policy shared by
  storage I/O and the shard transport;
* :mod:`repro.resilience.faults` — a fault-injection harness layering
  duplicate, stuck, corrupted, and clock-skewed readings on top of the
  :class:`~repro.metering.channel.LossyChannel` loss model;
* :mod:`repro.resilience.checkpoint` — crash-safe checkpoint/restore of
  the full monitoring-service state.
"""

from repro.resilience.checkpoint import (
    CHECKPOINT_VERSION,
    load_checkpoint,
    save_checkpoint,
)
from repro.resilience.circuit import BreakerBoard, BreakerState, CircuitBreaker
from repro.resilience.config import ResilienceConfig
from repro.resilience.faults import FaultInjector, FaultyChannel
from repro.resilience.retry import RetryPolicy, retry_call

__all__ = [
    "BreakerBoard",
    "BreakerState",
    "CHECKPOINT_VERSION",
    "CircuitBreaker",
    "FaultInjector",
    "FaultyChannel",
    "ResilienceConfig",
    "RetryPolicy",
    "load_checkpoint",
    "retry_call",
    "save_checkpoint",
]
