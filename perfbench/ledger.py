"""Span recorder and per-layer self-time ledger for the traced run.

The traced run wraps public methods of the ``repro`` layers *from the
benchmark's own files* (the program under test is not edited): each
wrapped call records one span ``(name, start, end, parent, trace_id)``
in memory, and its self time (duration minus the time its direct child
spans cover) is charged to exactly one ledger row.  Because every span's
self time lands in one row, the rows plus ``unattributed_s`` (wall
clock minus the root spans) sum to the traced wall clock.

Wrapping is per call, never per reading: the hottest wrapped method is
``ReadingFirewall.screen`` (one call per polling cycle per shard, or per
late reading in event-time mode).
"""

from __future__ import annotations

import functools
import json
import os
from time import perf_counter

#: Self-time rows, in print order.  Every span name maps to one row.
TIME_ROWS = (
    "scaleout.dispatch_self_s",
    "transport.self_s",
    "durability.monitor_self_s",
    "durability.wal_append_s",
    "durability.fsync_s",
    "durability.checkpoint_s",
    "durability.compact_s",
    "quarantine.screen_s",
    "online.ingest_self_s",
    "framework.train_s",
    "framework.score_s",
    "integrity.screen_s",
    "integrity.canary_s",
    "eventtime.deliver_self_s",
    "eventtime.reconcile_s",
    "detectors.arima_fit_s",
    "detectors.integrated_fit_s",
    "detectors.kld_fit_s",
    "detectors.flags_s",
    "attacks.inject_s",
    "evaluation.self_s",
)

#: Work counters, in print order (see ``install`` for where each is
#: incremented).
COUNT_ROWS = (
    "scaleout.cycles",
    "transport.calls",
    "transport.retries",
    "durability.wal_appends",
    "durability.wal_bytes",
    "durability.fsyncs",
    "durability.checkpoints",
    "durability.checkpoint_bytes",
    "quarantine.screen_calls",
    "quarantine.rejects",
    "framework.consumers_trained",
    "framework.consumer_weeks_scored",
    "framework.alerts",
    "integrity.screens",
    "integrity.suspect_weeks",
    "integrity.canary_runs",
    "eventtime.reconciles",
    "eventtime.revisions",
    "detectors.flags_calls",
)

#: Counters that are not plain counts.
COUNT_UNITS = {"durability.wal_bytes": "B", "durability.checkpoint_bytes": "B"}


class Ledger:
    """In-memory spans plus per-row self time and counters."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, object]] = []
        self.self_s = dict.fromkeys(TIME_ROWS, 0.0)
        self.counts = dict.fromkeys(COUNT_ROWS, 0)
        #: Shared id of the operation in flight (cycle, delivery index or
        #: consumer id); the workload loop sets it before each call.
        self.trace_id: object = None
        # Open spans: [span index, row, start, child seconds].
        self._stack: list[list] = []

    def begin(self, name: str, row: str) -> None:
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append((name, 0.0, 0.0, parent, self.trace_id))
        self._stack.append([len(self.spans) - 1, row, perf_counter(), 0.0])

    def end(self) -> None:
        now = perf_counter()
        index, row, start, child = self._stack.pop()
        duration = now - start
        name, _, _, parent, trace_id = self.spans[index]
        self.spans[index] = (name, start, now, parent, trace_id)
        self.self_s[row] += duration - child
        if self._stack:
            self._stack[-1][3] += duration

    def root_seconds(self) -> float:
        return sum(end - start for _, start, end, parent, _ in self.spans
                   if parent == -1)

    def rows(self, wall_s: float) -> dict[str, float]:
        """Self-time rows plus ``unattributed_s``; they sum to ``wall_s``."""
        out = dict(self.self_s)
        out["unattributed_s"] = wall_s - self.root_seconds()
        return out

    def write(self, path: str, origin: float) -> None:
        """Dump the spans as JSON (times relative to ``origin``)."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            json.dump(
                {
                    "fields": ["name", "start_s", "end_s", "parent", "id"],
                    "spans": [
                        [name, start - origin, end - origin, parent,
                         trace_id]
                        for name, start, end, parent, trace_id in self.spans
                    ],
                },
                handle,
            )


def _wrap(ledger: Ledger, name: str, row, after=None):
    """Decorator factory: record a span; ``row`` may be a callable of
    ``self`` (for rows that depend on the receiver's type)."""

    def decorate(func):
        @functools.wraps(func)
        def wrapper(self, *args, **kwargs):
            ledger.begin(name, row(self) if callable(row) else row)
            try:
                result = func(self, *args, **kwargs)
            finally:
                ledger.end()
            if after is not None:
                after(self, args, result)
            return result

        return wrapper

    return decorate


class Instrumentation:
    """Installs the span wrappers on the layer classes, and removes them."""

    def __init__(self, ledger: Ledger) -> None:
        self.ledger = ledger
        self._saved: list[tuple[object, str, object]] = []

    def _patch(
        self, owner, attr: str, name: str, row, after=None, around=None
    ) -> None:
        """Wrap ``owner.attr`` in a span; ``around`` adds an inner
        decorator that runs inside the span (for before/after counts)."""
        original = owner.__dict__[attr]
        self._saved.append((owner, attr, original))
        func = around(original) if around is not None else original
        setattr(owner, attr, _wrap(self.ledger, name, row, after)(func))

    def _count(self, key: str, amount: int = 1) -> None:
        self.ledger.counts[key] += amount

    def install(self) -> None:
        from repro.attacks.injection import (
            ARIMAAttack,
            IntegratedARIMAAttack,
            OptimalSwapAttack,
        )
        from repro.core.framework import FDetaFramework
        from repro.core.online import TheftMonitoringService
        from repro.detectors.arima_detector import ARIMADetector
        from repro.detectors.base import WeeklyDetector
        from repro.detectors.integrated_arima import IntegratedARIMADetector
        from repro.durability.recovery import DurableTheftMonitor
        from repro.durability.wal import WriteAheadLog
        from repro.eventtime import EventTimeIngestor
        from repro.evaluation import experiment
        from repro.integrity import CanaryGate, DriftSentinel
        from repro.quarantine import ReadingFirewall
        from repro.scaleout import ElasticFleet
        from repro.transport import InProcTransport, ShardClient

        count = self._count
        patch = self._patch

        patch(ElasticFleet, "ingest_cycle", "ElasticFleet.ingest_cycle",
              "scaleout.dispatch_self_s",
              lambda s, a, r: count("scaleout.cycles"))
        patch(ShardClient, "call", "ShardClient.call", "transport.self_s",
              lambda s, a, r: count("transport.calls"))
        # Every attempt reaches the transport; a retry carries attempt > 0.
        original_send = InProcTransport.__dict__["call"]
        self._saved.append((InProcTransport, "call", original_send))

        @functools.wraps(original_send)
        def send(transport, envelope):
            count("transport.retries", envelope.attempt > 0)
            return original_send(transport, envelope)

        InProcTransport.call = send

        patch(DurableTheftMonitor, "ingest_cycle",
              "DurableTheftMonitor.ingest_cycle",
              "durability.monitor_self_s")

        def logged(func):
            @functools.wraps(func)
            def inner(wal, *args, **kwargs):
                before = wal._segment_bytes
                result = func(wal, *args, **kwargs)
                after = wal._segment_bytes
                count("durability.wal_appends")
                # A rotation in between restarts the offset at zero.
                count("durability.wal_bytes",
                      after - before if after >= before else after)
                return result

            return inner

        for attr in ("append_cycle", "append_delivery", "mark_checkpoint",
                     "append_finish"):
            patch(WriteAheadLog, attr, f"WriteAheadLog.{attr}",
                  "durability.wal_append_s", around=logged)
        patch(WriteAheadLog, "sync", "WriteAheadLog.sync",
              "durability.fsync_s",
              lambda s, a, r: count("durability.fsyncs"))
        patch(WriteAheadLog, "compact", "WriteAheadLog.compact",
              "durability.compact_s")

        def checkpointed(service, args, result):
            count("durability.checkpoints")
            count("durability.checkpoint_bytes", os.path.getsize(args[0]))

        patch(TheftMonitoringService, "checkpoint",
              "TheftMonitoringService.checkpoint", "durability.checkpoint_s",
              checkpointed)

        def screened(func):
            @functools.wraps(func)
            def inner(firewall, *args, **kwargs):
                before = len(firewall.store)
                result = func(firewall, *args, **kwargs)
                count("quarantine.screen_calls")
                count("quarantine.rejects", len(firewall.store) - before)
                return result

            return inner

        patch(ReadingFirewall, "screen", "ReadingFirewall.screen",
              "quarantine.screen_s", around=screened)

        patch(TheftMonitoringService, "ingest_cycle",
              "TheftMonitoringService.ingest_cycle", "online.ingest_self_s")
        patch(TheftMonitoringService, "reconcile_reading",
              "TheftMonitoringService.reconcile_reading",
              "eventtime.reconcile_s",
              lambda s, a, r: (count("eventtime.reconciles"),
                               count("eventtime.revisions", r is not None)))
        for attr in ("deliver", "finish"):
            patch(EventTimeIngestor, attr, f"EventTimeIngestor.{attr}",
                  "eventtime.deliver_self_s")

        patch(FDetaFramework, "train", "FDetaFramework.train",
              "framework.train_s",
              lambda s, a, r: count("framework.consumers_trained",
                                    len(a[0])))

        def scored(framework, args, assessment):
            count("framework.consumer_weeks_scored")
            count("framework.alerts", bool(assessment.result.flagged))

        for attr in ("assess_week", "assess_partial_week"):
            patch(FDetaFramework, attr, f"FDetaFramework.{attr}",
                  "framework.score_s", scored)

        patch(DriftSentinel, "screen", "DriftSentinel.screen",
              "integrity.screen_s",
              lambda s, a, r: (count("integrity.screens"),
                               count("integrity.suspect_weeks",
                                     len(r.suspects))))
        patch(CanaryGate, "evaluate", "CanaryGate.evaluate",
              "integrity.canary_s",
              lambda s, a, r: count("integrity.canary_runs"))

        def fit_row(detector) -> str:
            if isinstance(detector, ARIMADetector):
                return "detectors.arima_fit_s"
            if isinstance(detector, IntegratedARIMADetector):
                return "detectors.integrated_fit_s"
            # KLDDetector and the price-conditioned KLD variant.
            return "detectors.kld_fit_s"

        patch(WeeklyDetector, "fit", "WeeklyDetector.fit", fit_row)
        patch(WeeklyDetector, "flags", "WeeklyDetector.flags",
              "detectors.flags_s",
              lambda s, a, r: count("detectors.flags_calls"))
        patch(ARIMAAttack, "inject", "ARIMAAttack.inject", "attacks.inject_s")
        # inject_many (inherited) is a loop over inject, so it is covered.
        patch(IntegratedARIMAAttack, "inject", "IntegratedARIMAAttack.inject",
              "attacks.inject_s")
        patch(OptimalSwapAttack, "inject", "OptimalSwapAttack.inject",
              "attacks.inject_s")

        # Module-level function: run_evaluation looks it up at call time.
        original_eval = experiment.evaluate_consumer
        self._saved.append((experiment, "evaluate_consumer", original_eval))
        ledger = self.ledger

        @functools.wraps(original_eval)
        def evaluate_consumer(consumer_id, *args, **kwargs):
            ledger.trace_id = consumer_id
            ledger.begin("evaluate_consumer", "evaluation.self_s")
            try:
                return original_eval(consumer_id, *args, **kwargs)
            finally:
                ledger.end()

        experiment.evaluate_consumer = evaluate_consumer

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Instrumentation":
        self.install()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.uninstall()
