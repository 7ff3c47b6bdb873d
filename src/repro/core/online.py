"""Online theft-monitoring service: F-DETA as a running system.

The paper frames detection as "a centralized online algorithm that would
run at an electric utility's control center" (Section VII-A).  This
module provides that operational wrapper: a service that ingests polling
cycles from the AMI, maintains per-consumer reading histories, trains
per-consumer detectors once enough history has accumulated, re-assesses
every completed week, periodically retrains, and fuses the balance-check
signal with the data-driven assessments into actionable alerts.

Ingestion has one path.  Every polling cycle is screened by a
:class:`~repro.quarantine.firewall.ReadingFirewall`, and the service
accepts partial cycles: a missing or quarantined reading becomes a NaN
gap marker (keeping every series slot-aligned), a per-consumer circuit
breaker quarantines meters that go silent or keep failing the firewall,
short gaps are repaired by interpolation at week boundaries, and weeks
with residual gaps are scored in degraded mode with the assessment
carrying a ``coverage`` fraction — alerts are suppressed below the
configured minimum coverage
(:class:`~repro.resilience.config.ResilienceConfig`).  A clean cycle
that carries the whole population is simply the zero-gap case.

The full service state can be checkpointed to disk and restored in a
fresh process (see :mod:`repro.resilience.checkpoint`), resuming
mid-week without retraining.
"""

from __future__ import annotations

import contextlib
import math
import os
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Iterable, Iterator, Mapping

import numpy as np

from repro.core.framework import AnomalyNature, ConsumerAssessment, FDetaFramework
from repro.data.preprocessing import observed_fraction, repair_gaps
from repro.detectors.base import WeeklyDetector
from repro.errors import ConfigurationError, DataError, NonFiniteInputError
from repro.eventtime.config import EventTimeConfig
from repro.eventtime.revision import RevisionKind, RevisionLog, VerdictRevision
from repro.grid.balance import BalanceAuditor
from repro.grid.snapshot import DemandSnapshot
from repro.integrity.config import IntegrityConfig
from repro.loadcontrol.config import LoadControlConfig, ShedPolicy
from repro.loadcontrol.deadline import STAGE_SECONDS_BUCKETS, Deadline
from repro.loadcontrol.queue import BackpressureSignal
from repro.loadcontrol.shedding import LoadShedder, ShedTier
from repro.metering.store import ReadingStore
from repro.quarantine.firewall import MeterReading, ReadingFirewall
from repro.observability.events import EventLogger
from repro.observability.metrics import (
    FRACTION_BUCKETS,
    MetricsRegistry,
    use_registry,
)
from repro.observability.tracing import Tracer
from repro.resilience.circuit import BreakerBoard, BreakerState
from repro.resilience.config import ResilienceConfig
from repro.timeseries.seasonal import SLOTS_PER_WEEK

#: How many consumer ids an unknown-consumer error spells out.
_MISMATCH_IDS_SHOWN = 10

#: Alert severity (score / threshold) bands used as a metric label, so
#: alert counters stay low-cardinality instead of carrying raw floats.
_SEVERITY_BANDS = ((1.5, "marginal"), (3.0, "elevated"))

#: Histogram buckets (in slots) for how far behind the release cursor
#: late readings arrive — up to two weeks, the widest sane grace window.
_LATE_SLOT_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 48.0, 96.0, 168.0, 336.0, 672.0)


def _coverage(block: np.ndarray) -> list[float]:
    """Each row's observed fraction (the week's coverage)."""
    return np.isfinite(block).mean(axis=1).tolist()


def _severity_band(severity: float) -> str:
    for upper, label in _SEVERITY_BANDS:
        if severity < upper:
            return label
    return "critical"


def _abbreviate_ids(ids: Iterable[str], limit: int = _MISMATCH_IDS_SHOWN) -> str:
    """Render a bounded listing of consumer ids for error messages."""
    listed = sorted(ids)
    shown = ", ".join(repr(cid) for cid in listed[:limit])
    if len(listed) <= limit:
        return f"[{shown}]"
    return f"[{shown}] (+{len(listed) - limit} more)"


@dataclass(frozen=True)
class TheftAlert:
    """An actionable alert raised by the monitoring service.

    ``coverage`` is the fraction of the week's slots that were observed;
    below 1.0 the alert came from degraded-mode scoring.
    """

    week_index: int
    consumer_id: str
    nature: AnomalyNature
    score: float
    threshold: float
    balance_check_failed: bool
    coverage: float = 1.0

    @property
    def severity(self) -> float:
        """Score in threshold units (>= 1 means over the line)."""
        if self.threshold <= 0:
            return float(self.score)
        return float(self.score / self.threshold)


@dataclass
class MonitoringReport:
    """Summary of one completed week of monitoring.

    ``coverage`` maps each scored consumer to the observed fraction of
    its week, ``suppressed`` lists consumers whose coverage fell below
    the configured minimum (recorded, never alerted), and
    ``quarantined`` lists consumers whose circuit breaker was open at
    the week boundary.  ``shed`` lists consumers whose scoring was
    skipped by the load shedder this week (deadline exhausted or
    sustained backpressure) — they still carry a ``coverage`` entry, so
    a shed week is a counted gap, never a silent one.
    """

    week_index: int
    alerts: list[TheftAlert] = field(default_factory=list)
    balance_failures: tuple[str, ...] = ()
    coverage: dict[str, float] = field(default_factory=dict)
    suppressed: tuple[str, ...] = ()
    quarantined: tuple[str, ...] = ()
    shed: tuple[str, ...] = ()

    @property
    def quiet(self) -> bool:
        return not self.alerts and not self.balance_failures

    @property
    def degraded(self) -> bool:
        """Whether any consumer was scored on a partially-observed week."""
        return any(value < 1.0 for value in self.coverage.values())


class TheftMonitoringService:
    """Stateful control-centre service.

    Parameters
    ----------
    detector_factory:
        Builds one fresh detector per consumer at (re)training time.
    min_training_weeks:
        Weeks of history required before detectors first train.
    retrain_every_weeks:
        Cadence of retraining on the full accumulated history.
        Weeks that raised alerts are *excluded* from retraining data so
        an ongoing attack cannot poison its own detector.
    auditor:
        Optional balance auditor; when provided, the last snapshot of
        each week is audited and the result fused into the alerts.
    resilience:
        Gap-tolerance knobs (see the module docstring);
        ``ResilienceConfig()`` when omitted.  In degraded mode the
        detector must support partial weeks (e.g.
        :class:`~repro.core.kld.KLDDetector`); detectors that do not
        are simply skipped on gappy weeks.
    population:
        Optional fleet declaration.  When omitted, the first ingested
        cycle fixes the population — that first cycle may itself be
        partial, so head-ends that know their fleet should declare it.
    metrics:
        Registry receiving the service's counters, gauges, and latency
        histograms (a fresh one is created when omitted).  The registry
        is part of the checkpointed state, so counters survive
        ``--resume``.  Detector fit/score latencies recorded through the
        global registry are routed here while the service runs them.
    events:
        Optional structured JSONL event logger.  Holds an open stream,
        so it is *not* checkpointed — re-supply one at restore.
    tracer:
        Optional span tracer; weekly processing, training, assessment,
        and audits become nested spans.  Checkpointed with the service.
    firewall:
        Reading-integrity firewall; ``ReadingFirewall()`` when omitted.
        Every polling cycle is screened before ingestion: malformed
        readings (NaN/inf, negative, out-of-range, duplicate slots,
        clock skew, DST folds) are quarantined with a reason code and
        become NaN gaps — they count against the consumer's circuit
        breaker but never reach detector ``fit``/``score``.
        Checkpointed with the service, so the quarantine evidence
        survives ``--resume``/``--recover``.
    loadcontrol:
        Overload-control settings (see
        :class:`~repro.loadcontrol.config.LoadControlConfig`).  A shed
        consumer-week degrades to a coverage-counted gap.  The service
        reads pressure from
        :attr:`backpressure` (attach a
        :class:`~repro.loadcontrol.queue.BackpressureSignal`, e.g. via
        :class:`~repro.loadcontrol.queue.BufferedIngestor`) and sheds
        the healthy tier once pressure has been sustained for
        ``pressure_shed_after`` drain cycles; a per-cycle
        :class:`~repro.loadcontrol.deadline.Deadline` passed to
        :meth:`ingest_cycle` sheds the remainder of a scoring pass the
        moment the budget runs out.
    eventtime:
        Event-time settings (see
        :class:`~repro.eventtime.config.EventTimeConfig`).  Enables
        late-reading reconciliation: :meth:`reconcile_reading` merges a
        reading that arrived after its slot was released, re-assesses
        the affected week with the framework snapshot that originally
        scored it, and publishes any verdict change as a versioned
        :class:`~repro.eventtime.revision.VerdictRevision`.  Detector
        training is restricted to *finalized* weeks (those past their
        grace window), so a verdict still open to revision can never
        poison — or launder — the training data.  In this mode weekly
        gap repair does not write interpolated values back to the
        store: a repaired slot must stay a gap so a late true reading
        can still land in it, and a too-late arrival lands in the
        firewall's quarantine.
    """

    def __init__(
        self,
        detector_factory: Callable[[], WeeklyDetector],
        min_training_weeks: int = 8,
        retrain_every_weeks: int = 4,
        auditor: BalanceAuditor | None = None,
        resilience: ResilienceConfig | None = None,
        population: Iterable[str] | None = None,
        metrics: MetricsRegistry | None = None,
        events: EventLogger | None = None,
        tracer: Tracer | None = None,
        firewall: ReadingFirewall | None = None,
        loadcontrol: LoadControlConfig | None = None,
        eventtime: EventTimeConfig | None = None,
        integrity: "IntegrityConfig | None" = None,
        training_window_weeks: int | None = None,
    ) -> None:
        if min_training_weeks < 2:
            raise ConfigurationError(
                f"min_training_weeks must be >= 2, got {min_training_weeks}"
            )
        if retrain_every_weeks < 1:
            raise ConfigurationError(
                f"retrain_every_weeks must be >= 1, got {retrain_every_weeks}"
            )
        if training_window_weeks is not None and training_window_weeks < 2:
            raise ConfigurationError(
                "training_window_weeks must be >= 2 (a detector cannot "
                f"fit on fewer rows), got {training_window_weeks}"
            )
        self.detector_factory = detector_factory
        self.min_training_weeks = int(min_training_weeks)
        self.retrain_every_weeks = int(retrain_every_weeks)
        #: Bound on how many (newest) clean weeks each retraining fits
        #: on.  ``None`` keeps the historical grow-forever behaviour.
        #: A sliding window is what production deployments run — it
        #: bounds memory and tracks seasonal drift — but it is also the
        #: boiling-frog ramp's attack surface: the baseline follows
        #: whatever the window holds.  ``repro.integrity`` exists to
        #: close exactly that hole (the drift sentinels are anchored on
        #: each consumer's earliest history, *outside* the window).
        self.training_window_weeks = (
            int(training_window_weeks)
            if training_window_weeks is not None
            else None
        )
        self.auditor = auditor
        self.resilience = (
            resilience if resilience is not None else ResilienceConfig()
        )
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.events = events
        self.tracer = tracer
        #: Optional :class:`~repro.observability.ops.StageProfiler`,
        #: the profile subscriber of :meth:`stage`; attached after
        #: construction (by the CLI or an ElasticFleet).  Deliberately
        #: not a constructor argument: profilers are run-scoped
        #: diagnostics and never ride checkpoints.
        self.profiler = None
        #: Bound ``fdeta_stage_seconds`` observers by stage, and the
        #: bound ``fdeta_ingest_cycle_seconds`` observer: bound on first
        #: use (no zero-count series), against this instance's registry
        #: — a restored service binds afresh to its restored registry.
        self._stage_timers: dict[str, Callable[[float], None]] = {}
        self._cycle_timer: Callable[[float], None] | None = None
        self.firewall = firewall if firewall is not None else ReadingFirewall()
        self.loadcontrol = loadcontrol
        self.eventtime = eventtime
        #: Training-integrity defenses (``repro.integrity``): drift
        #: sentinels screening training weeks, winsorized fitting, and
        #: canary-gated promotion through a versioned model registry.
        #: ``None`` keeps the historical train-and-swap behaviour
        #: bit-for-bit.
        self.integrity = integrity
        self.model_registry = None
        #: The drift sentinel is stateless, so one instance serves
        #: every screening; it is an attribute (not rebuilt per call)
        #: so benches and tests can install an instrumented subclass.
        self.sentinel = None
        if integrity is not None:
            # Local import: the registry pulls in the attack-injection
            # taxonomy (for the canary gate), which plain monitoring
            # deployments should not pay for.
            from repro.integrity import DriftSentinel, ModelRegistry

            self.sentinel = DriftSentinel(integrity)
            self.model_registry = ModelRegistry()
        #: Training weeks excluded by the drift sentinels, per consumer.
        #: Distinct from ``_quarantined_weeks`` (alert weeks): suspicion
        #: is monotone — a week convicted of drift never re-enters
        #: training, even if later weeks look calm.
        self._suspect_weeks: dict[str, set[int]] = {}
        #: Each consumer's anchored honest exemplar: the earliest kept
        #: training week, captured at the consumer's *first* training
        #: and never replaced.  The canary gate scores candidates
        #: against this anchor — a sliding training window drifts with
        #: a ramp, the anchor cannot.
        self._canary_reference: dict[str, np.ndarray] = {}
        #: Audited record of post-publication verdict changes (event-time
        #: mode); rendered by the CLI's ``--revisions-out``.
        self.revisions = RevisionLog()
        #: Framework snapshot that scored each still-reconcilable week:
        #: a late reading re-assesses with the *same* detectors the week
        #: was originally scored with, so a retrain between scoring and
        #: reconciliation cannot flip verdicts on its own.  Pruned as
        #: weeks finalize, so it holds at most grace_weeks + 1 entries.
        self._scoring_frameworks: dict[int, FDetaFramework] = {}
        #: Producer-side pressure signal; attached by whatever queues
        #: cycles in front of this service (e.g. a BufferedIngestor).
        self.backpressure: BackpressureSignal | None = None
        self._shedder: LoadShedder | None = None
        if loadcontrol is not None:
            self._shedder = LoadShedder(
                policy=loadcontrol.shed_policy,
                metrics=self.metrics,
                events=events,
            )
        self.store = ReadingStore(metrics=self.metrics)
        self._framework: FDetaFramework | None = None
        self._slot_count = 0
        self._weeks_completed = 0
        self._weeks_at_last_training = 0
        self._quarantined_weeks: dict[str, set[int]] = {}
        self._last_snapshot: DemandSnapshot | None = None
        self._population: frozenset[str] | None = None
        self._roster: tuple[str, ...] = ()
        self._breakers = BreakerBoard(
            failure_threshold=self.resilience.failure_threshold,
            cooldown_cycles=self.resilience.cooldown_cycles,
            recovery_probes=self.resilience.recovery_probes,
        )
        if population is not None:
            self._set_population(population)
        self.reports: list[MonitoringReport] = []

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------

    @property
    def is_trained(self) -> bool:
        return self._framework is not None

    @property
    def weeks_completed(self) -> int:
        return self._weeks_completed

    @property
    def cycles_ingested(self) -> int:
        """Polling cycles ingested so far — the next expected cycle index."""
        return self._slot_count

    def _set_population(self, consumers: Iterable[str]) -> None:
        roster = tuple(sorted(consumers))
        if not roster:
            raise DataError("population must contain at least one consumer")
        self._population = frozenset(roster)
        self._roster = roster

    # ------------------------------------------------------------------
    # Telemetry plumbing
    # ------------------------------------------------------------------

    def _emit(self, level: str, event: str, **fields: object) -> None:
        if self.events is not None:
            self.events.log(level, event, **fields)

    def _span(self, name: str, **fields: object):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(name, **fields)

    @contextlib.contextmanager
    def stage(
        self, name: str, deadline: Deadline | None = None
    ) -> Iterator[None]:
        """Time one pipeline stage window: the one stage timer.

        The clock is read once on entry and once on exit, and that one
        elapsed value goes to every subscriber: the
        ``fdeta_stage_seconds{stage=name}`` histogram, the attached
        :attr:`profiler` (if any), and ``deadline``, which records an
        overrun if its budget is spent when the stage ends.  The stage
        records even when its body raises.
        """
        profiler = self.profiler
        if profiler is not None:
            profiler.enter()
        start = perf_counter()
        try:
            yield
        finally:
            elapsed = perf_counter() - start
            observe = self._stage_timers.get(name)
            if observe is None:
                observe = self._stage_timers[name] = self.metrics.histogram(
                    "fdeta_stage_seconds",
                    "Wall-clock seconds spent per pipeline stage.",
                    labels=("stage",),
                    buckets=STAGE_SECONDS_BUCKETS,
                ).bind(stage=name)
            observe(elapsed)
            if profiler is not None:
                profiler.leave(name, elapsed)
            if deadline is not None:
                deadline.check(name)

    def ingest_cycle(
        self,
        reported: Mapping[str, float | MeterReading],
        snapshot: DemandSnapshot | None = None,
        deadline: Deadline | None = None,
    ) -> MonitoringReport | None:
        """Feed one polling cycle of reported readings.

        Returns a :class:`MonitoringReport` when this cycle completes a
        week, ``None`` otherwise.

        ``deadline`` is the cycle's time budget.  The pipeline stages —
        ``firewall``, ``ingest``, ``scoring`` — are timed by
        :meth:`stage` and checked against it; an expired deadline never
        aborts a stage mid-flight, but the weekly scoring pass consults
        it between consumers and (with a shedding policy configured)
        sheds the unscored remainder.

        The cycle is screened by the firewall first: readings may be
        plain floats or :class:`~repro.quarantine.firewall.MeterReading`
        stamps.  A consumer that is missing from the cycle, or whose
        reading the firewall quarantined, gets a NaN gap marker (so
        every later reading still lands in its true slot), and its
        circuit breaker decides when it has failed enough to be
        quarantined.  An empty cycle (every meter silent at once)
        records a gap for the whole roster.  A consumer outside the
        population raises.
        """
        started = perf_counter()
        if self._population is None:
            self._set_population(reported)
        with self.stage("firewall", deadline):
            reported = self.firewall.screen(
                reported,
                cycle=self._slot_count,
                metrics=self.metrics,
                events=self.events,
            )
        with self.stage("ingest", deadline):
            self._ingest(reported)
        self._slot_count += 1
        self._last_snapshot = snapshot
        report: MonitoringReport | None = None
        if self._slot_count % SLOTS_PER_WEEK == 0:
            self._weeks_completed += 1
            # Detector fit/score latencies record into the global
            # registry; route them into this service's registry for the
            # duration of the weekly processing.
            with use_registry(self.metrics), self.stage("scoring", deadline):
                report = self._complete_week(deadline)
        self.metrics.counter(
            "fdeta_ingest_cycles_total", "Polling cycles ingested."
        ).inc()
        observe = self._cycle_timer
        if observe is None:
            observe = self._cycle_timer = self.metrics.histogram(
                "fdeta_ingest_cycle_seconds",
                "Latency of one ingest_cycle call (week-completing cycles "
                "include training/assessment).",
            ).bind()
        observe(perf_counter() - started)
        return report

    def _ingest(self, screened: Mapping[str, float]) -> None:
        """Append one screened cycle as one store column in roster order.

        Every value in ``screened`` passed the firewall, so it is
        already finite, non-negative and in range; an absent consumer
        is a gap (NaN in the column).
        """
        unknown = screened.keys() - self._population
        if unknown:
            raise DataError(
                "polling cycle carried unknown consumers: "
                f"{_abbreviate_ids(unknown)}"
            )
        readings = self.metrics.counter(
            "fdeta_readings_total",
            "Readings ingested, by outcome.",
            labels=("status",),
        )
        transitions = self.metrics.counter(
            "fdeta_breaker_transitions_total",
            "Circuit-breaker state transitions.",
            labels=("from_state", "to_state"),
        )
        roster, breakers = self._roster, self._breakers
        column = np.fromiter(
            (screened.get(cid, math.nan) for cid in roster),
            dtype=float,
            count=len(roster),
        )
        self.store.append_column(roster, column)
        observed = ~np.isnan(column)
        gaps = len(roster) - int(np.count_nonzero(observed))
        for cid, valid in zip(roster, observed.tolist()):
            breaker = breakers.breaker(cid)
            before = breaker.state
            after = breaker.record(valid)
            if after is not before:
                transitions.inc(
                    from_state=before.value, to_state=after.value
                )
                self._emit(
                    "warning" if after is BreakerState.OPEN else "info",
                    "breaker_transition",
                    consumer=cid,
                    from_state=before.value,
                    to_state=after.value,
                    cycle=self._slot_count,
                )
        if gaps < len(self._roster):
            readings.inc(len(self._roster) - gaps, status="ok")
        if gaps:
            readings.inc(gaps, status="gap")

    # ------------------------------------------------------------------
    # Week boundary processing
    # ------------------------------------------------------------------

    def _training_rows(
        self, consumer_id: str
    ) -> tuple[np.ndarray, list[int]]:
        matrix = self.store.week_matrix(consumer_id)
        quarantined = self._quarantined_weeks.get(consumer_id, set())
        suspect = self._suspect_weeks.get(consumer_id, set())
        keep = [
            i
            for i in range(matrix.shape[0])
            if i not in quarantined
            and i not in suspect
            and bool(np.isfinite(matrix[i]).all())
            # Event-time mode: only *finalized* weeks may train.  A week
            # still inside its grace window can be revised by a late
            # reading, and the finalization schedule is a pure function
            # of released-slot count — so in-order and scrambled runs
            # select identical training rows at every retraining.
            and (
                self.eventtime is None
                or self.eventtime.finalization_slot(i) <= self._slot_count
            )
        ]
        return matrix[keep], keep

    def _screen_consumer(
        self, consumer_id: str, matrix: np.ndarray, weeks: list[int]
    ) -> tuple[np.ndarray, list[int]]:
        """Run the drift sentinel; exclude and record suspect weeks."""
        from repro.quarantine.store import (
            QuarantinedReading,
            QuarantineReason,
        )

        result = self.sentinel.screen(matrix, weeks)
        if not result.suspects:
            return matrix, weeks
        marked = self._suspect_weeks.setdefault(consumer_id, set())
        suspects = self.metrics.counter(
            "fdeta_integrity_suspect_weeks_total",
            "Training weeks excluded by the drift sentinels.",
        )
        for verdict in result.suspects:
            marked.add(verdict.week)
            suspects.inc()
            self._emit(
                "warning",
                "training_week_suspect",
                consumer=consumer_id,
                week=verdict.week,
                psi=round(verdict.psi, 4),
                cusum_low=round(verdict.cusum_low, 3),
                cusum_high=round(verdict.cusum_high, 3),
                reasons="; ".join(verdict.reasons),
            )
            # The evidence locker: the whole week lands in the
            # quarantine report as one POISON_SUSPECT record whose
            # value is the week's mean reading.
            self.firewall.store.add(
                QuarantinedReading(
                    consumer_id=consumer_id,
                    value=float(matrix[weeks.index(verdict.week)].mean()),
                    cycle=self._slot_count,
                    reason=QuarantineReason.POISON_SUSPECT,
                    declared_slot=verdict.week,
                    detail="; ".join(verdict.reasons),
                )
            )
        kept = set(result.kept_weeks)
        rows = [i for i, week in enumerate(weeks) if week in kept]
        return matrix[rows], [weeks[i] for i in rows]

    def _train(self) -> None:
        with self._span("train", week=self._weeks_completed - 1):
            matrices: dict[str, np.ndarray] = {}
            lineage: dict[str, tuple[int, ...]] = {}
            for cid in self.store.consumers():
                matrix, weeks = self._training_rows(cid)
                if self.integrity is not None and matrix.shape[0] >= 2:
                    with self.stage("integrity_screen"):
                        matrix, weeks = self._screen_consumer(
                            cid, matrix, weeks
                        )
                # The sentinel screens the *full* kept history (its
                # reference and CUSUM must stay anchored on the earliest
                # honest weeks); the window then bounds what the fit
                # actually sees.  Windowing first would let a slow ramp
                # re-anchor the sentinel every retraining.
                if self.training_window_weeks is not None:
                    matrix = matrix[-self.training_window_weeks :]
                    weeks = weeks[-self.training_window_weeks :]
                if matrix.shape[0] < 2:
                    # A consumer without enough clean history is skipped
                    # this round and picked up at a later retraining
                    # once its record recovers.
                    continue
                matrices[cid] = matrix
                lineage[cid] = tuple(weeks)
                if self.integrity is not None:
                    # Anchor the canary exemplar on the consumer's
                    # first-ever training: it must never slide with the
                    # training window, or a ramp could drag it along.
                    self._canary_reference.setdefault(
                        cid, np.array(matrix[0], dtype=float)
                    )
            if not matrices:
                return
            fit_matrices = matrices
            if (
                self.integrity is not None
                and self.integrity.winsorize is not None
            ):
                from repro.integrity import winsorize_matrix

                fit_matrices = {
                    cid: winsorize_matrix(m, self.integrity.winsorize)
                    for cid, m in matrices.items()
                }
            framework = FDetaFramework(detector_factory=self.detector_factory)
            framework.train(fit_matrices)
            if self.integrity is None:
                self._framework = framework
            else:
                self._gate_candidate(framework, matrices, lineage)
            # A canary-rejected candidate still advances the training
            # clock: retraining cadence is a property of the service,
            # not of promotion outcomes, so poisoned and clean runs
            # retrain on the same weeks.
            self._weeks_at_last_training = self._weeks_completed
        self.metrics.counter(
            "fdeta_trainings_total", "Detector (re)training rounds."
        ).inc()
        self._emit(
            "info",
            "detectors_trained",
            week=self._weeks_completed - 1,
            consumers_trained=len(matrices),
            consumers_skipped=len(self.store.consumers()) - len(matrices),
        )

    def _gate_candidate(
        self,
        framework: FDetaFramework,
        matrices: Mapping[str, np.ndarray],
        lineage: Mapping[str, tuple[int, ...]],
    ) -> None:
        """Submit a retrained framework and promote it iff canaries pass."""
        from repro.integrity import CanaryGate

        assert self.model_registry is not None
        candidate = self.model_registry.submit(
            framework,
            lineage,
            week=self._weeks_completed - 1,
            cycle=self._slot_count,
        )
        with self.stage("canary_gate"):
            report = CanaryGate(self.integrity).evaluate(
                framework,
                # Anchored honest exemplars (earliest kept week at each
                # consumer's first training) — deliberately NOT the
                # current window's first row, which a ramp drags along.
                {
                    cid: self._canary_reference.get(cid, matrices[cid][0])
                    for cid in matrices
                },
                seed=candidate.version,
            )
        self.metrics.counter(
            "fdeta_integrity_canary_runs_total",
            "Canary-gate evaluations of candidate models, by outcome.",
            labels=("outcome",),
        ).inc(outcome="pass" if report.passed else "fail")
        if report.passed:
            self.model_registry.promote(candidate.version, report)
            self._framework = framework
            self.metrics.counter(
                "fdeta_model_promotions_total",
                "Candidate models promoted to active.",
            ).inc()
            self._set_model_gauge()
            self._emit(
                "info",
                "model_promoted",
                version=candidate.version,
                week=candidate.week,
                canary_detected=report.detected,
                canary_total=report.total,
            )
        else:
            self.model_registry.reject(candidate.version, report)
            # The previously promoted model (or no model at all, before
            # the first promotion) keeps scoring; nothing is installed.
            self._emit(
                "warning",
                "model_rejected",
                version=candidate.version,
                week=candidate.week,
                canary_detected=report.detected,
                canary_total=report.total,
                canary_floor=report.floor,
                misses=len(report.misses),
                clean_failures=list(report.clean_failures),
            )

    def _set_model_gauge(self) -> None:
        if self.model_registry is None:
            return
        self.metrics.gauge(
            "fdeta_model_active_version",
            "Version number of the active (promoted) model; 0 before "
            "the first promotion.",
        ).set(float(self.model_registry.active_version or 0))

    # ------------------------------------------------------------------
    # Model lifecycle (integrity mode)
    # ------------------------------------------------------------------

    def _require_integrity(self, what: str):
        if self.integrity is None or self.model_registry is None:
            raise ConfigurationError(
                f"{what} requires integrity mode (pass an IntegrityConfig)"
            )
        return self.model_registry

    def model_version(self) -> int | None:
        """The active model version, or ``None`` outside integrity mode
        (and before the first promotion)."""
        if self.model_registry is None:
            return None
        return self.model_registry.active_version

    def rollback_model(self, version: int):
        """One-command rollback: restore a previously promoted version.

        The restored framework is rebuilt from the registry's stored
        state (deep-copied both ways), so subsequent verdicts are
        bit-identical to a run in which the versions after ``version``
        were never promoted.
        """
        registry = self._require_integrity("rollback_model")
        target = registry.rollback(
            version, week=self._weeks_completed, cycle=self._slot_count
        )
        self._framework = registry.build_framework(
            version, self.detector_factory
        )
        self.metrics.counter(
            "fdeta_model_rollbacks_total", "Model rollbacks performed."
        ).inc()
        self._set_model_gauge()
        self._emit(
            "warning",
            "model_rolled_back",
            version=version,
            week=self._weeks_completed,
            fingerprint=target.fingerprint[:12],
        )
        return target

    def excise_week(
        self,
        consumer_id: str,
        week_index: int,
        reason: str = "verdict revision convicted a trained week",
    ):
        """Retroactively excise a convicted week from the model line.

        Marks the week as permanently barred from training, walks the
        registry lineage for every version that consumed it, and — when
        the *active* model is tainted — retrains from the clean prefix
        through the normal canary gate.  If the clean retrain fails its
        canary, the newest untainted promoted version is restored
        instead, so a tainted model never keeps scoring.
        """
        from repro.integrity import ExcisionReport

        registry = self._require_integrity("excise_week")
        if self._population is not None and (
            consumer_id not in self._population
        ):
            raise DataError(f"unknown consumer {consumer_id!r}")
        if week_index < 0:
            raise DataError(f"week_index must be >= 0, got {week_index}")
        self._quarantined_weeks.setdefault(consumer_id, set()).add(week_index)
        tainted = registry.tainted_by(consumer_id, week_index)
        self.metrics.counter(
            "fdeta_integrity_excisions_total",
            "Training weeks retroactively excised after conviction.",
        ).inc()
        self._emit(
            "warning",
            "training_week_excised",
            consumer=consumer_id,
            week=week_index,
            reason=reason,
            tainted_versions=list(tainted),
        )
        retrained = False
        rolled_back_to = None
        if registry.active_version in tainted:
            self._train()
            retrained = True
            if registry.active_version in tainted:
                # The clean-prefix candidate failed its canary; fall
                # back to the newest promoted version with no taint.
                fallback = registry.newest_clean_restore_point(tainted)
                if fallback is not None:
                    self.rollback_model(fallback)
                    rolled_back_to = fallback
        return ExcisionReport(
            consumer_id=consumer_id,
            week_index=week_index,
            tainted_versions=tainted,
            retrained=retrained,
            active_after=registry.active_version,
            rolled_back_to=rolled_back_to,
        )

    def _complete_week(
        self, deadline: Deadline | None = None
    ) -> MonitoringReport:
        week_index = self._weeks_completed - 1
        with self._span("week", week=week_index):
            report = self._process_week(week_index, deadline)
        self._record_week_telemetry(report)
        return report

    def _process_week(
        self, week_index: int, deadline: Deadline | None = None
    ) -> MonitoringReport:
        balance_failures: tuple[str, ...] = ()
        if self.auditor is not None and self._last_snapshot is not None:
            with self._span("audit", week=week_index):
                audit = self.auditor.audit(self._last_snapshot)
                balance_failures = audit.failing_nodes()
        report = MonitoringReport(
            week_index=week_index, balance_failures=balance_failures
        )
        if self.eventtime is not None:
            # Week ``week_index - grace_weeks`` finalized with this
            # boundary: no late reading can reach it any more, so its
            # repair becomes permanent — otherwise one lost reading
            # would keep the week out of training forever.  Every
            # roster consumer is repaired (breaker state depends on
            # delivery order and must not decide what trains).
            final = week_index - self.eventtime.grace_weeks
            if final >= 0 and self._roster:
                self.store.write_week_block(
                    self._roster,
                    final,
                    self._repaired(self.store.week_block(self._roster, final)),
                )
        if self._framework is None:
            # Weeks up to (and including) the first training week are
            # history, not candidates: nothing is assessed.
            if self._weeks_completed >= self.min_training_weeks:
                self._train()
            self._annotate_untrained_week(report, week_index)
            self.reports.append(report)
            return report
        with self._span("assess", week=week_index):
            self._assess_week(report, week_index, deadline)
        if self.eventtime is not None:
            # Pin the framework that scored this week (a retrain below
            # replaces self._framework wholesale, so holding the
            # reference is a stable snapshot), and drop pins for weeks
            # whose grace window just closed.
            self._scoring_frameworks[week_index] = self._framework
            for week in [
                w
                for w in self._scoring_frameworks
                if self.eventtime.finalization_slot(w) <= self._slot_count
            ]:
                del self._scoring_frameworks[week]
        # Periodic retraining on non-quarantined history.
        due = (
            self._weeks_completed - self._weeks_at_last_training
            >= self.retrain_every_weeks
        )
        if due:
            self._train()
        self.reports.append(report)
        return report

    def _record_week_telemetry(self, report: MonitoringReport) -> None:
        metrics = self.metrics
        metrics.counter(
            "fdeta_weeks_completed_total", "Monitoring weeks completed."
        ).inc()
        alerts = metrics.counter(
            "fdeta_alerts_total",
            "Theft alerts raised, by anomaly nature and severity band.",
            labels=("nature", "severity"),
        )
        for alert in report.alerts:
            alerts.inc(
                nature=alert.nature.value,
                severity=_severity_band(alert.severity),
            )
            self._emit(
                "warning",
                "theft_alert",
                week=report.week_index,
                consumer=alert.consumer_id,
                nature=alert.nature,
                score=alert.score,
                threshold=alert.threshold,
                severity=alert.severity,
                coverage=alert.coverage,
                balance_check_failed=alert.balance_check_failed,
            )
        if report.balance_failures:
            metrics.counter(
                "fdeta_balance_failures_total",
                "Nodes failing the weekly balance audit.",
            ).inc(len(report.balance_failures))
        if report.degraded:
            metrics.counter(
                "fdeta_degraded_weeks_total",
                "Weeks scored with at least one partially-observed "
                "consumer.",
            ).inc()
        coverage = metrics.histogram(
            "fdeta_week_coverage_fraction",
            "Per-consumer observed fraction of each scored week.",
            buckets=FRACTION_BUCKETS,
        )
        coverage.observe_many(report.coverage.values())
        if report.suppressed:
            metrics.counter(
                "fdeta_suppressed_consumer_weeks_total",
                "Consumer-weeks suppressed for insufficient coverage.",
            ).inc(len(report.suppressed))
        if report.quarantined:
            metrics.counter(
                "fdeta_quarantined_consumer_weeks_total",
                "Consumer-weeks skipped because the breaker was open.",
            ).inc(len(report.quarantined))
        states = metrics.gauge(
            "fdeta_breaker_state_consumers",
            "Consumers currently in each circuit-breaker state.",
            labels=("state",),
        )
        for state, count in self._breakers.state_counts().items():
            states.set(count, state=state.value)
        self._emit(
            "info",
            "week_completed",
            week=report.week_index,
            alerts=len(report.alerts),
            suppressed=len(report.suppressed),
            quarantined=len(report.quarantined),
            shed=len(report.shed),
            degraded=report.degraded,
            balance_failures=len(report.balance_failures),
        )

    def _annotate_untrained_week(
        self, report: MonitoringReport, week_index: int
    ) -> None:
        """Record coverage/quarantine even before detectors exist."""
        allowed = self._breakers.allows_scoring
        scored = [cid for cid in self._roster if allowed(cid)]
        report.quarantined = tuple(
            cid for cid in self._roster if not allowed(cid)
        )
        if not scored:
            return
        repaired = self._repaired(self.store.week_block(scored, week_index))
        report.coverage.update(zip(scored, _coverage(repaired)))
        if self.eventtime is None:
            self.store.write_week_block(scored, week_index, repaired)

    def _repaired(self, block: np.ndarray) -> np.ndarray:
        """A ``(consumers, slots)`` week block with short gaps repaired.

        Nothing is written back: the caller decides.  Outside
        event-time mode a scored week's repair is persisted so training
        and checkpoints see it; in event-time mode an interpolated slot
        must stay a NaN gap until its week finalizes, so a late true
        reading can still be reconciled into it.
        """
        if self.resilience.max_repair_gap > 0:
            return repair_gaps(block, self.resilience.max_repair_gap)
        return block

    def _emit_alert(
        self,
        report: MonitoringReport,
        week_index: int,
        assessment: ConsumerAssessment,
        balance_failed: bool,
    ) -> None:
        report.alerts.append(
            TheftAlert(
                week_index=week_index,
                consumer_id=assessment.consumer_id,
                nature=assessment.nature,
                score=assessment.result.score,
                threshold=assessment.result.threshold,
                balance_check_failed=balance_failed,
                coverage=assessment.coverage,
            )
        )
        self._quarantined_weeks.setdefault(
            assessment.consumer_id, set()
        ).add(week_index)

    def _shed_tiers(self) -> dict[str, ShedTier]:
        """Triage the roster into scoring-priority tiers (see
        :mod:`repro.loadcontrol.shedding`): evidence of trouble —
        alert history, breaker trips, or firewalled readings — must
        never be what gets shed first."""
        quarantine_counts = self.firewall.store.counts_by_consumer()
        tiers: dict[str, ShedTier] = {}
        for cid in self._roster:
            if (
                self._quarantined_weeks.get(cid)
                or quarantine_counts.get(cid)
                or self._breakers.trip_count(cid) > 0
            ):
                tiers[cid] = ShedTier.SUSPECT
            elif self._breakers.state(cid) is not BreakerState.CLOSED:
                tiers[cid] = ShedTier.WATCH
            else:
                tiers[cid] = ShedTier.HEALTHY
        return tiers

    def _pressure_sustained(self) -> bool:
        """Whether backpressure has been engaged long enough to pre-shed."""
        return (
            self.loadcontrol is not None
            and self.backpressure is not None
            and self.backpressure.engaged_ticks
            >= self.loadcontrol.pressure_shed_after
        )

    def _assess_single(
        self,
        framework: FDetaFramework | None,
        consumer_id: str,
        week_index: int,
        week: np.ndarray,
        coverage: float,
    ) -> tuple[ConsumerAssessment | None, bool]:
        """Assess one consumer-week; returns ``(assessment, suppress)``.

        The single source of degraded-mode verdict logic: both the
        boundary scoring pass and late-reading reconciliation call this,
        so a reconciled week can never be judged by different rules than
        it would have been at its boundary.  ``suppress`` means the
        consumer-week is recorded but must not alert (insufficient
        coverage, detector without partial-week support, or input the
        detector rejected); a ``(None, False)`` return means there is
        simply no verdict to give (no detector trained yet).
        """
        if coverage < self.resilience.min_coverage:
            # Too little signal: record, never alert — a mostly
            # silenced link must not produce confident verdicts.
            return None, True
        if framework is None or not framework.has_detector(consumer_id):
            return None, False
        try:
            if coverage < 1.0:
                detector = framework.detector_for(consumer_id)
                if not detector.supports_partial_weeks:
                    return None, True
                assessment = framework.assess_partial_week(
                    consumer_id, week, week_index=week_index
                )
            else:
                assessment = framework.assess_week(
                    consumer_id, week, week_index=week_index
                )
        except NonFiniteInputError as exc:
            # Degraded mode keeps the fleet scored even when one
            # consumer's week defeats its detector: skip with an
            # event instead of taking the whole week down.
            self.metrics.counter(
                "fdeta_assessments_skipped_total",
                "Consumer-week assessments skipped because the "
                "detector rejected its input.",
            ).inc()
            self._emit(
                "warning",
                "assessment_skipped",
                consumer=consumer_id,
                week=week_index,
                reason=str(exc),
            )
            return None, True
        return assessment, False

    def _assess_week(
        self,
        report: MonitoringReport,
        week_index: int,
        deadline: Deadline | None = None,
    ) -> None:
        assert self._framework is not None
        balance_failed = bool(report.balance_failures)
        suppressed = []
        quarantined = []
        order: tuple[str, ...] = self._roster
        tiers: dict[str, ShedTier] = {}
        pre_shed: frozenset[str] = frozenset()
        pressure_shed: dict[str, ShedTier] = {}
        deadline_shed: dict[str, ShedTier] = {}
        shedding = (
            self._shedder is not None
            and self._shedder.policy is not ShedPolicy.OFF
        )
        if shedding:
            assert self._shedder is not None
            tiers = self._shed_tiers()
            order = self._shedder.order(self._roster, tiers)
            if self._pressure_sustained():
                pre_shed = self._shedder.pressure_shed(order, tiers)
        allowed = self._breakers.allows_scoring
        candidates = [cid for cid in order if allowed(cid)]
        # One block read and one repair for every consumer the pass may
        # reach.  A shed week still gets its coverage counted from the
        # raw block (no repair, no scoring) so it reconciles as an
        # explicit gap; only scored weeks have their repair persisted.
        raw = self.store.week_block(candidates, week_index)
        repaired = self._repaired(raw)
        raw_coverage = _coverage(raw)
        repaired_coverage = _coverage(repaired)
        scored: list[int] = []
        row = -1
        for cid in order:
            if not allowed(cid):
                quarantined.append(cid)
                continue
            row += 1
            if cid in pre_shed:
                pressure_shed[cid] = tiers[cid]
                report.coverage[cid] = raw_coverage[row]
                continue
            if shedding and deadline is not None and deadline.expired:
                # Budget gone: the rest of the pass degrades to counted
                # gaps.  Under PRIORITY ordering the suspects have
                # already been scored by the time this fires.
                deadline_shed[cid] = tiers[cid]
                report.coverage[cid] = raw_coverage[row]
                continue
            scored.append(row)
            week = repaired[row]
            coverage = repaired_coverage[row]
            report.coverage[cid] = coverage
            assessment, suppress = self._assess_single(
                self._framework, cid, week_index, week, coverage
            )
            if suppress:
                suppressed.append(cid)
                continue
            if assessment is not None and assessment.result.flagged:
                self._emit_alert(report, week_index, assessment, balance_failed)
        report.suppressed = tuple(suppressed)
        report.quarantined = tuple(quarantined)
        if scored and self.eventtime is None:
            self.store.write_week_block(
                [candidates[row] for row in scored],
                week_index,
                repaired[scored],
            )
        if pressure_shed or deadline_shed:
            assert self._shedder is not None
            report.shed = tuple(sorted({**pressure_shed, **deadline_shed}))
            if pressure_shed:
                self._shedder.record(
                    pressure_shed, week_index, reason="pressure"
                )
            if deadline_shed:
                self._shedder.record(
                    deadline_shed, week_index, reason="deadline"
                )

    # ------------------------------------------------------------------
    # Event-time reconciliation
    # ------------------------------------------------------------------

    def reconcile_reading(
        self, consumer_id: str, slot: int, value: float
    ) -> VerdictRevision | None:
        """Merge a late reading into an already-released slot.

        Called by the event-time ingestor for readings that arrive after
        the watermark released their slot but while the slot's week is
        still inside its grace window.  The value lands in the store
        (slot-addressed, last-write-wins); if the slot's week has
        already been scored, the week is re-assessed with the framework
        snapshot that originally scored it, the report's coverage and
        alert evidence are updated in place, and a flagged-state change
        comes back as a freshly versioned
        :class:`~repro.eventtime.revision.VerdictRevision` (also
        appended to :attr:`revisions`).  Returns ``None`` when the
        verdict did not flip — a duplicate of an absorbed value, a
        reading for the still-open week, or a change too small to cross
        the threshold.
        """
        if self.eventtime is None:
            raise ConfigurationError(
                "reconcile_reading requires event-time mode "
                "(construct the service with an EventTimeConfig)"
            )
        slot = int(slot)
        if self._population is None or consumer_id not in self._population:
            raise DataError(f"unknown consumer {consumer_id!r}")
        if slot >= self._slot_count:
            raise DataError(
                f"slot {slot} has not been released yet (released "
                f"through {self._slot_count - 1}); offer the reading to "
                "the reorder buffer instead"
            )
        week_index = slot // SLOTS_PER_WEEK
        if self.eventtime.finalization_slot(week_index) <= self._slot_count:
            raise DataError(
                f"week {week_index} is finalized; a reading for slot "
                f"{slot} must be quarantined as too_late"
            )
        value = float(value)
        if not math.isfinite(value) or value < 0:
            raise DataError(
                f"late reading for {consumer_id!r} must be finite and "
                f">= 0, got {value} (screen it before reconciling)"
            )
        outcomes = self.metrics.counter(
            "fdeta_reconciliations_total",
            "Late readings reconciled into released slots, by outcome.",
            labels=("outcome",),
        )
        self.metrics.histogram(
            "fdeta_eventtime_late_slots",
            "How many slots behind the release cursor late readings "
            "arrive.",
            buckets=_LATE_SLOT_BUCKETS,
        ).observe(float(self._slot_count - slot))
        if self.store.reading(consumer_id, slot) == value:
            # The exact value is already in place (duplicate delivery of
            # an already-reconciled reading): converged, nothing to do.
            outcomes.inc(outcome="noop")
            return None
        self.store.record(consumer_id, slot, value)
        if week_index >= len(self.reports):
            # The slot's week has not completed yet: the write landed in
            # the open week and boundary scoring will see it normally.
            outcomes.inc(outcome="open_week")
            return None
        with use_registry(self.metrics):
            return self._reassess_consumer_week(
                consumer_id, week_index, outcomes
            )

    def _reassess_consumer_week(
        self, consumer_id: str, week_index: int, outcomes
    ) -> VerdictRevision | None:
        """Re-run one consumer's weekly verdict after a late write."""
        assert self.eventtime is not None
        report = self.reports[week_index]
        if consumer_id in report.quarantined:
            # The breaker was open at the boundary: the week was never
            # scored, and one late value must not conjure a verdict now.
            outcomes.inc(outcome="quarantined")
            return None
        block = self.store.week_block((consumer_id,), week_index)
        week = self._repaired(block)[0]
        coverage = observed_fraction(week)
        coverage_before = report.coverage.get(consumer_id)
        report.coverage[consumer_id] = coverage
        old_alert = next(
            (a for a in report.alerts if a.consumer_id == consumer_id), None
        )
        flagged_before = old_alert is not None
        framework = self._scoring_frameworks.get(week_index)
        assessment, suppress = self._assess_single(
            framework, consumer_id, week_index, week, coverage
        )
        was_suppressed = consumer_id in report.suppressed
        if suppress and not was_suppressed:
            report.suppressed = tuple(
                sorted({*report.suppressed, consumer_id})
            )
        elif was_suppressed and not suppress:
            report.suppressed = tuple(
                cid for cid in report.suppressed if cid != consumer_id
            )
        flagged_after = assessment is not None and assessment.result.flagged
        if not flagged_before and not flagged_after:
            outcomes.inc(outcome="unchanged")
            return None
        balance_failed = bool(report.balance_failures)
        if flagged_before and flagged_after:
            # Verdict stands; refresh the alert's evidence (score and
            # coverage moved) in place.  Deliberately not a revision:
            # the operator-visible decision did not change.
            assert assessment is not None
            report.alerts[report.alerts.index(old_alert)] = TheftAlert(
                week_index=week_index,
                consumer_id=consumer_id,
                nature=assessment.nature,
                score=assessment.result.score,
                threshold=assessment.result.threshold,
                balance_check_failed=balance_failed,
                coverage=assessment.coverage,
            )
            outcomes.inc(outcome="refreshed")
            return None
        if flagged_after:
            assert assessment is not None
            self._emit_alert(report, week_index, assessment, balance_failed)
            # The boundary pass emits alerts in roster order; an upgrade
            # must land in the same position it would have held there,
            # so a reconciled report is bit-identical to an in-order one.
            alert = report.alerts.pop()
            position = {cid: i for i, cid in enumerate(self._roster)}
            rank = position.get(consumer_id, len(position))
            insert_at = next(
                (
                    i
                    for i, existing in enumerate(report.alerts)
                    if position.get(existing.consumer_id, len(position))
                    > rank
                ),
                len(report.alerts),
            )
            report.alerts.insert(insert_at, alert)
            kind = RevisionKind.UPGRADE
            reason = "late readings lifted the week's verdict over threshold"
        else:
            report.alerts.remove(old_alert)
            self._quarantined_weeks.get(consumer_id, set()).discard(
                week_index
            )
            kind = RevisionKind.DOWNGRADE
            if suppress:
                reason = (
                    "reconciled week no longer yields a confident verdict"
                )
            else:
                reason = (
                    "late readings brought the week back under threshold"
                )
        revision = self.revisions.record(
            week_index=week_index,
            consumer_id=consumer_id,
            kind=kind,
            reason=reason,
            cycle=self._slot_count,
            flagged_before=flagged_before,
            flagged_after=flagged_after,
            score_before=old_alert.score if old_alert is not None else None,
            score_after=(
                assessment.result.score if assessment is not None else None
            ),
            coverage_before=coverage_before,
            coverage_after=coverage,
        )
        outcomes.inc(outcome=kind.value)
        self.metrics.counter(
            "fdeta_revisions_total",
            "Verdict revisions published after late-reading "
            "reconciliation, by direction.",
            labels=("kind",),
        ).inc(kind=kind.value)
        self._emit(
            "warning" if kind is RevisionKind.UPGRADE else "info",
            "verdict_revised",
            week=week_index,
            consumer=consumer_id,
            version=revision.version,
            kind=kind.value,
            reason=reason,
            score_before=revision.score_before,
            score_after=revision.score_after,
        )
        if (
            kind is RevisionKind.UPGRADE
            and self.model_registry is not None
            and self.model_registry.active_version is not None
            and self.model_registry.active_version
            in self.model_registry.tainted_by(consumer_id, week_index)
        ):
            # Normally unreachable: event-time finalization keeps
            # revisable weeks out of training.  But if lineage ever
            # names a now-convicted week (e.g. grace settings changed
            # across a restore), the tainted model must not keep
            # scoring — excise it through the standard path.
            self.excise_week(consumer_id, week_index)
        return revision

    # ------------------------------------------------------------------
    # Shard migration (scale-out)
    # ------------------------------------------------------------------
    #
    # An elastic fleet (see :mod:`repro.scaleout`) moves individual
    # consumers between shard services when the hash ring changes.  The
    # contract: extract a self-contained state packet on the source,
    # adopt it on a destination whose polling clock matches, and the
    # merged fleet behaves bit-identically to one that never rebalanced.
    # The framework is purely per-consumer (one detector + one weekly-
    # mean distribution each), which is what makes a per-consumer packet
    # complete.

    @property
    def roster(self) -> tuple[str, ...]:
        """The fixed population, sorted (empty before it is known)."""
        return self._roster

    def clock_state(self) -> dict:
        """The service's polling clock, for aligning a fresh shard."""
        return {
            "slot_count": self._slot_count,
            "weeks_completed": self._weeks_completed,
            "weeks_at_last_training": self._weeks_at_last_training,
        }

    def align_clock(self, clock: Mapping[str, int]) -> None:
        """Fast-forward a *virgin* service's clock to a donor's.

        A shard created mid-run must agree with the rest of the fleet on
        how many cycles have elapsed and when training last happened —
        otherwise its training cadence (and therefore its verdicts)
        would diverge from an undisturbed fleet's.  Only an empty
        service may be aligned; anything else would desynchronise the
        slot-aligned series invariant.
        """
        if self._slot_count or self._weeks_completed or self.reports:
            raise ConfigurationError(
                "align_clock requires a service that has never ingested"
            )
        self._slot_count = int(clock["slot_count"])
        self._weeks_completed = int(clock["weeks_completed"])
        self._weeks_at_last_training = int(clock["weeks_at_last_training"])

    def extract_consumer(self, consumer_id: str) -> dict:
        """Copy one consumer's full migratable state (non-destructive).

        The packet carries everything the weekly pipeline consults for
        this consumer: the slot-aligned series, the circuit breaker, the
        alert-quarantined training weeks, and the trained detector and
        weekly-mean distribution (when the current framework has them).
        Weekly reports stay behind — they are the *recording* shard's
        history, merged later by the fleet plane.
        """
        if self.eventtime is not None:
            raise ConfigurationError(
                "consumer migration is not supported in event-time mode: "
                "pinned per-week scoring frameworks cannot follow a "
                "consumer across shards"
            )
        if self._population is None or consumer_id not in self._population:
            raise DataError(f"unknown consumer {consumer_id!r}")
        framework = self._framework
        return {
            "series": (
                self.store.series(consumer_id).tolist()
                if self.store.length(consumer_id)
                else []
            ),
            "breaker": self._breakers.breakers.get(consumer_id),
            "quarantined_weeks": set(
                self._quarantined_weeks.get(consumer_id, ())
            ),
            "suspect_weeks": set(self._suspect_weeks.get(consumer_id, ())),
            "canary_reference": self._canary_reference.get(consumer_id),
            "framework_trained": framework is not None,
            "triage_quantiles": (
                framework.triage_quantiles if framework is not None else None
            ),
            "detector": (
                framework._detectors.get(consumer_id)
                if framework is not None
                else None
            ),
            "mean_distribution": (
                framework._mean_distributions.get(consumer_id)
                if framework is not None
                else None
            ),
        }

    def release_consumer(self, consumer_id: str) -> dict:
        """Extract one consumer's packet and drop them from this shard.

        The service keeps running for its remaining consumers; a shard
        drained of its last consumer becomes an empty shard whose ingest
        cycles are no-ops.
        """
        packet = self.extract_consumer(consumer_id)
        remaining = tuple(
            cid for cid in self._roster if cid != consumer_id
        )
        self._population = frozenset(remaining)
        self._roster = remaining
        self.store.clear(consumer_id)
        self._breakers.breakers.pop(consumer_id, None)
        self._quarantined_weeks.pop(consumer_id, None)
        self._suspect_weeks.pop(consumer_id, None)
        self._canary_reference.pop(consumer_id, None)
        if self._framework is not None:
            self._framework._detectors.pop(consumer_id, None)
            self._framework._mean_distributions.pop(consumer_id, None)
        return packet

    def adopt_consumer(self, consumer_id: str, packet: Mapping) -> None:
        """Install a migrated consumer's packet into this shard.

        Requires the destination clock to already match the source (the
        handoff protocol quiesces the fleet first): the packet's series
        must be exactly ``cycles_ingested`` slots long so every series
        stays slot-aligned.  Idempotent handoff roll-forward is the
        caller's job — adopting an already-present consumer raises.
        """
        if self.eventtime is not None:
            raise ConfigurationError(
                "consumer migration is not supported in event-time mode"
            )
        if self._population is not None and consumer_id in self._population:
            raise ConfigurationError(
                f"{consumer_id!r} is already on this shard"
            )
        series = np.asarray(packet["series"], dtype=float)
        if len(series) != self._slot_count:
            raise DataError(
                f"cannot adopt {consumer_id!r}: packet carries "
                f"{len(series)} slots but this shard has ingested "
                f"{self._slot_count} cycles (handoff must quiesce first)"
            )
        if self._population is None:
            self._set_population((consumer_id,))
        else:
            self._set_population((*self._roster, consumer_id))
        self.store.load(consumer_id, series)
        breaker = packet.get("breaker")
        if breaker is not None:
            self._breakers.breakers[consumer_id] = breaker
        quarantined = set(packet.get("quarantined_weeks", ()))
        if quarantined:
            self._quarantined_weeks[consumer_id] = quarantined
        suspect = set(packet.get("suspect_weeks", ()))
        if suspect:
            self._suspect_weeks[consumer_id] = suspect
        reference = packet.get("canary_reference")
        if reference is not None:
            self._canary_reference[consumer_id] = np.array(
                reference, dtype=float
            )
        if packet.get("framework_trained") and self._framework is None:
            # A shard created after the fleet first trained must enter
            # the *assess* path at its next boundary, not the train
            # path — otherwise its training cadence diverges from an
            # undisturbed fleet.  Start an empty framework shell; the
            # adopted detectors populate it below.
            self._framework = FDetaFramework(
                detector_factory=self.detector_factory,
                triage_quantiles=packet["triage_quantiles"],
            )
        detector = packet.get("detector")
        if detector is not None and self._framework is not None:
            self._framework._detectors[consumer_id] = detector
            if packet.get("mean_distribution") is not None:
                self._framework._mean_distributions[consumer_id] = packet[
                    "mean_distribution"
                ]

    # ------------------------------------------------------------------
    # Checkpoint / restore
    # ------------------------------------------------------------------

    def checkpoint(self, path: str | os.PathLike) -> None:
        """Atomically write the full service state to ``path``.

        See :mod:`repro.resilience.checkpoint` for the file format and
        what must be re-supplied at restore time.
        """
        from repro.resilience.checkpoint import save_checkpoint

        save_checkpoint(self, path)
        self._emit(
            "info",
            "checkpoint_saved",
            path=os.fspath(path),
            week=self._weeks_completed,
            cycle=self._slot_count,
        )

    @classmethod
    def restore(
        cls,
        path: str | os.PathLike,
        detector_factory: Callable[[], WeeklyDetector],
        auditor: BalanceAuditor | None = None,
        events: EventLogger | None = None,
        tracer: Tracer | None = None,
    ) -> "TheftMonitoringService":
        """Load a service checkpointed with :meth:`checkpoint`.

        ``events`` (an open stream, never serialized) may be re-supplied
        here; ``tracer`` overrides the checkpointed trace state when
        given.
        """
        from repro.resilience.checkpoint import load_checkpoint

        return load_checkpoint(
            path, detector_factory, auditor=auditor, events=events,
            tracer=tracer,
        )

    def _state_dict(self) -> dict:
        framework_state = None
        if self._framework is not None:
            framework_state = {
                "triage_quantiles": self._framework.triage_quantiles,
                "detectors": dict(self._framework._detectors),
                "mean_distributions": dict(
                    self._framework._mean_distributions
                ),
            }
        return {
            "min_training_weeks": self.min_training_weeks,
            "retrain_every_weeks": self.retrain_every_weeks,
            "resilience": self.resilience,
            "store": self.store.state_dict(),
            "slot_count": self._slot_count,
            "weeks_completed": self._weeks_completed,
            "weeks_at_last_training": self._weeks_at_last_training,
            "quarantined_weeks": {
                cid: set(weeks)
                for cid, weeks in self._quarantined_weeks.items()
            },
            "suspect_weeks": {
                cid: set(weeks)
                for cid, weeks in self._suspect_weeks.items()
            },
            "training_window_weeks": self.training_window_weeks,
            "canary_reference": {
                cid: np.array(week, dtype=float)
                for cid, week in self._canary_reference.items()
            },
            "integrity": self.integrity,
            # The registry pickles wholesale (stored framework states
            # are plain detector/distribution objects, no factories),
            # so model lineage and restore points survive recovery.
            "model_registry": self.model_registry,
            "population": self._population,
            "roster": self._roster,
            "reports": list(self.reports),
            "breakers": self._breakers,
            "last_snapshot": self._last_snapshot,
            "framework": framework_state,
            "metrics": self.metrics,
            "tracer": self.tracer,
            "firewall": self.firewall,
            "loadcontrol": self.loadcontrol,
            "eventtime": self.eventtime,
            "revisions": self.revisions,
            # Pinned per-week frameworks are decomposed like "framework"
            # above: FDetaFramework holds the (unpicklable) factory.
            "scoring_frameworks": {
                week: {
                    "triage_quantiles": fw.triage_quantiles,
                    "detectors": dict(fw._detectors),
                    "mean_distributions": dict(fw._mean_distributions),
                }
                for week, fw in self._scoring_frameworks.items()
            },
        }

    @classmethod
    def _from_state(
        cls,
        state: dict,
        detector_factory: Callable[[], WeeklyDetector],
        auditor: BalanceAuditor | None = None,
        events: EventLogger | None = None,
        tracer: Tracer | None = None,
    ) -> "TheftMonitoringService":
        service = cls(
            detector_factory=detector_factory,
            min_training_weeks=state["min_training_weeks"],
            retrain_every_weeks=state["retrain_every_weeks"],
            auditor=auditor,
            resilience=state["resilience"],
            metrics=state["metrics"],
            events=events,
            tracer=tracer if tracer is not None else state["tracer"],
            firewall=state.get("firewall"),
            loadcontrol=state.get("loadcontrol"),
            eventtime=state.get("eventtime"),
            integrity=state.get("integrity"),
            training_window_weeks=state.get("training_window_weeks"),
        )
        if state.get("model_registry") is not None:
            service.model_registry = state["model_registry"]
        service._suspect_weeks = {
            cid: set(weeks)
            for cid, weeks in state.get("suspect_weeks", {}).items()
        }
        service._canary_reference = {
            cid: np.array(week, dtype=float)
            for cid, week in state.get("canary_reference", {}).items()
        }
        if state.get("revisions") is not None:
            service.revisions = state["revisions"]
        for week, fw_state in state.get("scoring_frameworks", {}).items():
            pinned = FDetaFramework(
                detector_factory=detector_factory,
                triage_quantiles=fw_state["triage_quantiles"],
            )
            pinned._detectors = dict(fw_state["detectors"])
            pinned._mean_distributions = dict(fw_state["mean_distributions"])
            service._scoring_frameworks[int(week)] = pinned
        if "store" in state:
            service.store.load_state(state["store"])
        else:
            # Written before the store was one matrix: a list of
            # readings per consumer, in store order.
            for cid, values in state["series"].items():
                service.store.load(cid, values)
        service._slot_count = state["slot_count"]
        service._weeks_completed = state["weeks_completed"]
        service._weeks_at_last_training = state["weeks_at_last_training"]
        service._quarantined_weeks = {
            cid: set(weeks)
            for cid, weeks in state["quarantined_weeks"].items()
        }
        service._population = state["population"]
        service._roster = state["roster"]
        service.reports = list(state["reports"])
        # A strict-mode checkpoint (written before ingestion had one path)
        # carries no breakers; it keeps the fresh board built above.
        if state["breakers"] is not None:
            service._breakers = state["breakers"]
        service._last_snapshot = state["last_snapshot"]
        if state["framework"] is not None:
            framework = FDetaFramework(
                detector_factory=detector_factory,
                triage_quantiles=state["framework"]["triage_quantiles"],
            )
            framework._detectors = dict(state["framework"]["detectors"])
            framework._mean_distributions = dict(
                state["framework"]["mean_distributions"]
            )
            service._framework = framework
        return service

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def suspected_victims(self) -> tuple[str, ...]:
        """Consumers currently carrying victim-style alerts."""
        return tuple(
            dict.fromkeys(
                alert.consumer_id
                for report in self.reports
                for alert in report.alerts
                if alert.nature is AnomalyNature.SUSPECTED_VICTIM
            )
        )

    def suspected_attackers(self) -> tuple[str, ...]:
        """Consumers currently carrying attacker-style alerts."""
        return tuple(
            dict.fromkeys(
                alert.consumer_id
                for report in self.reports
                for alert in report.alerts
                if alert.nature is AnomalyNature.SUSPECTED_ATTACKER
            )
        )
