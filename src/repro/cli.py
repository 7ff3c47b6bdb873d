"""Command-line interface: ``python -m repro`` or the ``fdeta`` script.

Subcommands:

* ``generate`` — write a synthetic CER-like dataset to a CER-format file;
* ``table1`` — print the attack-classification matrix (Table I);
* ``evaluate`` — run the Section VIII evaluation and print Tables II/III;
* ``ablation`` — run the histogram-bin-count sweep;
* ``monitor`` — replay a dataset through the online monitoring service
  over a lossy channel, with optional checkpoint/resume, WAL-backed
  durable ingestion (``--wal-dir``), crash recovery (``--recover``),
  and a reading-integrity quarantine report (``--quarantine-report``).
  Overload controls: a bounded ingestion queue (``--max-queue``),
  priority load shedding (``--shed-policy``), per-cycle deadlines
  (``--cycle-deadline-ms``), and a self-healing shard fleet
  (``--shards N`` or ``--elastic``).  Exit status 4 marks a run that completed only
  by shedding load or overrunning its deadline (valid reports,
  degraded coverage — revisit capacity).  Event-time mode
  (``--eventtime``) delivers readings out of order through a
  watermarked reorder buffer (``--lateness-bound``, ``--scramble-delay``)
  and reconciles late arrivals into versioned verdict revisions
  (``--grace-weeks``, ``--revisions-out``); the final weekly verdicts
  are identical to an in-order run's.

The ``evaluate`` and ``monitor`` subcommands accept observability
flags: ``--metrics-out`` (Prometheus text, or a JSON snapshot when the
path ends in ``.json``), ``--trace-out`` (span-tree JSON), and
``--log-json`` (structured JSONL event log).  ``monitor`` additionally
exports ops-plane state — ``--health-out`` (per-shard liveness/
readiness), ``--slo-out`` (error-budget burn rates), and
``--profile-out`` (hot-path stage profile) — and ``status`` renders
those exports plus the fleet manifest as an operator dashboard.

Storage-fault robustness: ``monitor --storage-faults`` arms a
deterministic fault schedule (ENOSPC, EIO, torn writes, lying fsync,
at-rest bit-rot) against every durable write site, with the injection
evidence written via ``--fault-ledger-out``.  Every durable restart —
``--recover`` and every fleet reopen — survives a corrupt checkpoint
by falling back to its previous generation and replaying the WAL
forward; corruption nothing can rebuild exits 2.  A disk-full WAL write
flips the monitor into degraded read-only mode: ingestion stops,
committed verdicts stay servable, and the run exits 4.

Network-fault robustness: ``monitor --elastic --network-faults`` arms
a deterministic transport fault schedule (drop, delay, dup, reorder,
garble, partition, heal) against the coordinator-to-shard message
seam, with the injection evidence written via
``--transport-ledger-out``.  A partitioned shard degrades (its cycles
buffer for replay) instead of failing the run; before the final
summary every link is healed and the backlog drained, so the merged
verdicts match an undisturbed run bit for bit.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Sequence

from repro.observability.events import EventLogger
from repro.observability.metrics import MetricsRegistry
from repro.observability.tracing import Tracer

from repro.attacks.taxonomy import render_table_i
from repro.data.loader import load_cer_file, save_cer_file
from repro.data.synthetic import SyntheticCERConfig, generate_cer_like_dataset
from repro.evaluation.ablation import bin_count_sweep
from repro.evaluation.config import EvaluationConfig
from repro.evaluation.experiment import run_evaluation
from repro.evaluation.tables import (
    improvement_statistics,
    render_table2,
    render_table3,
    table2,
    table3,
)


def _add_dataset_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--consumers", type=int, default=60, help="synthetic population size"
    )
    parser.add_argument("--weeks", type=int, default=74, help="weeks of data")
    parser.add_argument("--seed", type=int, default=2016, help="generator seed")
    parser.add_argument(
        "--input", type=str, default=None, help="CER-format file to load instead"
    )


def _dataset_from_args(args: argparse.Namespace):
    if args.input:
        return load_cer_file(args.input)
    return generate_cer_like_dataset(
        SyntheticCERConfig(
            n_consumers=args.consumers, n_weeks=args.weeks, seed=args.seed
        )
    )


def _add_observability_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--metrics-out",
        type=str,
        default=None,
        help="write metrics here (Prometheus text; JSON snapshot if the "
        "path ends in .json)",
    )
    parser.add_argument(
        "--trace-out", type=str, default=None, help="write the span trace tree (JSON)"
    )
    parser.add_argument(
        "--log-json",
        type=str,
        default=None,
        help="append structured JSONL events here",
    )


def _add_ops_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--health-out",
        type=str,
        default=None,
        help="write the fleet health report (JSON) here (requires "
        "--elastic or --shards > 1)",
    )
    parser.add_argument(
        "--slo-out",
        type=str,
        default=None,
        help="write the SLO burn-rate report (JSON) here (requires "
        "--elastic or --shards > 1)",
    )
    parser.add_argument(
        "--profile-out",
        type=str,
        default=None,
        help="write the hot-path stage profile (JSON) here",
    )


def _event_logger_from_args(args: argparse.Namespace) -> EventLogger | None:
    if args.log_json is None:
        return None
    return EventLogger(path=args.log_json)


def _safe_export(label: str, path: str, write) -> None:
    """Run one export, degrading a storage failure to a logged warning.

    Exports are evidence, not state: by the time they are written the
    verdicts are already committed and printed, so a full or failing
    disk must never turn a completed run into a crash.
    """
    from repro.errors import StorageError

    try:
        write()
    except (StorageError, OSError) as exc:
        print(
            f"warning: could not write {label} to {path!r}: {exc}",
            file=sys.stderr,
        )
        return
    print(f"wrote {label} to {path}", file=sys.stderr)


def _write_observability_outputs(
    args: argparse.Namespace,
    metrics: MetricsRegistry,
    tracer: Tracer | None = None,
) -> None:
    if args.metrics_out:
        writer = (
            metrics.write_json
            if args.metrics_out.endswith(".json")
            else metrics.write_prometheus
        )
        _safe_export(
            "metrics", args.metrics_out, lambda: writer(args.metrics_out)
        )
    if args.trace_out and tracer is not None:
        _safe_export(
            "trace", args.trace_out, lambda: tracer.write(args.trace_out)
        )


def _cmd_generate(args: argparse.Namespace) -> int:
    dataset = generate_cer_like_dataset(
        SyntheticCERConfig(
            n_consumers=args.consumers, n_weeks=args.weeks, seed=args.seed
        )
    )
    save_cer_file(dataset, args.output)
    print(
        f"wrote {dataset.n_consumers} consumers x {dataset.n_weeks} weeks "
        f"to {args.output}"
    )
    return 0


def _cmd_table1(args: argparse.Namespace) -> int:
    print(render_table_i())
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    dataset = _dataset_from_args(args)
    config = EvaluationConfig(n_vectors=args.vectors, seed=args.eval_seed)
    # perf_counter, not time.time(): wall clock is not monotonic (NTP
    # steps would produce negative "elapsed" readouts).
    started = time.perf_counter()
    done = {"count": 0}
    metrics = MetricsRegistry()
    tracer = Tracer()
    events = _event_logger_from_args(args)

    def progress(cid: str) -> None:
        done["count"] += 1
        if args.verbose:
            elapsed = time.perf_counter() - started
            print(
                f"  [{done['count']}/{dataset.n_consumers}] {cid} "
                f"({elapsed:.1f}s elapsed)",
                file=sys.stderr,
            )

    if events is not None:
        events.info(
            "evaluation_started",
            consumers=dataset.n_consumers,
            vectors=args.vectors,
            parallel=args.parallel,
        )
    if args.parallel and args.parallel > 1:
        from repro.evaluation.parallel import run_evaluation_parallel

        with tracer.span("evaluate", mode="parallel", workers=args.parallel):
            results = run_evaluation_parallel(
                dataset, config, max_workers=args.parallel, metrics=metrics
            )
    else:
        with tracer.span("evaluate", mode="serial"):
            results = run_evaluation(
                dataset, config, progress=progress, metrics=metrics
            )
    if events is not None:
        events.info(
            "evaluation_finished",
            consumers=results.n_consumers,
            elapsed_s=time.perf_counter() - started,
        )
        events.close()
    _write_observability_outputs(args, metrics, tracer)
    rows2 = table2(results)
    rows3 = table3(results)
    print("Table II - Metric 1: % of consumers with successful detection")
    print(render_table2(rows2))
    print()
    print("Table III - Metric 2: worst-case weekly gains despite detection")
    print(render_table3(rows3))
    stats = improvement_statistics(rows3)
    print()
    print(
        f"Integrated ARIMA detector reduces 1B theft vs ARIMA detector by "
        f"{stats.integrated_over_arima:.1f}%"
    )
    print(
        f"KLD detector reduces 1B theft vs Integrated ARIMA detector by "
        f"{stats.kld_over_integrated:.1f}% (best: {stats.best_kld_detector})"
    )
    return 0


def _cmd_topology(args: argparse.Namespace) -> int:
    from repro.grid.builder import build_random_topology
    from repro.grid.render import render_tree
    from repro.grid.serialization import load_topology, save_topology

    if args.load:
        topology = load_topology(args.load)
    else:
        topology = build_random_topology(
            n_consumers=args.consumers,
            branching=args.branching,
            seed=args.seed,
        )
    if args.save:
        save_topology(topology, args.save)
        print(f"wrote topology to {args.save}")
    print(render_tree(topology, unicode_markers=not args.ascii))
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro.data.statistics import (
        render_population_summary,
        summarise_population,
    )

    dataset = _dataset_from_args(args)
    print(render_population_summary(summarise_population(dataset)))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.evaluation.report import render_markdown_report

    dataset = _dataset_from_args(args)
    config = EvaluationConfig(n_vectors=args.vectors, seed=args.eval_seed)
    results = run_evaluation(dataset, config)
    text = render_markdown_report(results)
    if args.output:
        Path(args.output).write_text(text)
        print(f"wrote report to {args.output}")
    else:
        print(text)
    return 0


def _cmd_monitor(args: argparse.Namespace) -> int:
    """Arm storage-fault injection (if requested) around the monitor run.

    The schedule is installed process-wide before any durable write and
    uninstalled afterwards; the injection ledger is written with plain
    stdlib IO so the schedule can never fault its own evidence.
    """
    from repro.errors import ConfigurationError
    from repro.storage import FaultSchedule, FaultyIO, StorageIO, install_io

    if args.fault_ledger_out and not args.storage_faults:
        print("--fault-ledger-out requires --storage-faults", file=sys.stderr)
        return 2
    schedule = None
    if args.storage_faults:
        try:
            schedule = FaultSchedule.parse(",".join(args.storage_faults))
        except ConfigurationError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        install_io(FaultyIO(schedule))
        print(
            f"storage-fault injection armed: {len(schedule.events)} "
            "scheduled fault(s)",
            file=sys.stderr,
        )
    try:
        return _monitor_command(args)
    finally:
        if schedule is not None:
            install_io(StorageIO())
            print(
                f"storage faults injected: {schedule.injected}/"
                f"{len(schedule.events)}",
                file=sys.stderr,
            )
            if args.fault_ledger_out:
                _write_ledger(
                    "fault ledger", args.fault_ledger_out, schedule.to_dict()
                )


def _write_ledger(label: str, path: str, ledger: dict) -> None:
    """Write a fault-injection ledger with plain stdlib IO, so the seam
    whose faults it documents can never fault the ledger itself."""
    import json

    try:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(ledger, handle, indent=2, sort_keys=True)
    except OSError as exc:
        print(
            f"warning: could not write {label} to {path!r}: {exc}",
            file=sys.stderr,
        )
    else:
        print(f"wrote {label} to {path}", file=sys.stderr)


def _monitor_command(args: argparse.Namespace) -> int:
    import os

    import numpy as np

    from repro.core.kld import KLDDetector
    from repro.core.online import TheftMonitoringService
    from repro.durability import (
        DurableTheftMonitor,
        WriteAheadLog,
        recover_monitor,
    )
    from repro.errors import (
        CheckpointError,
        ConfigurationError,
        DataError,
        DurabilityError,
        InjectionError,
        StorageDegradedError,
        StorageError,
    )
    from repro.loadcontrol import BufferedIngestor, LoadControlConfig, ShedPolicy
    from repro.quarantine import FirewallPolicy, ReadingFirewall
    from repro.resilience import ResilienceConfig
    from repro.timeseries.seasonal import SLOTS_PER_WEEK

    if args.recover and not args.wal_dir:
        print("--recover requires --wal-dir", file=sys.stderr)
        return 2
    if args.shards < 1:
        print("--shards must be >= 1", file=sys.stderr)
        return 2
    # A fleet run: --elastic, or more than one shard.  Both run on the
    # same ElasticFleet, which keeps its manifest and every shard's WAL
    # and checkpoint under --wal-dir.
    fleet = args.elastic or args.shards > 1
    if fleet and not args.wal_dir:
        print(
            "--elastic/--shards > 1 requires --wal-dir (the fleet "
            "manifest and per-shard WALs/checkpoints live under it)",
            file=sys.stderr,
        )
        return 2
    if fleet and args.checkpoint:
        print(
            "--elastic/--shards > 1 manages per-shard checkpoints under "
            "--wal-dir; drop --checkpoint",
            file=sys.stderr,
        )
        return 2
    for flag, given in (
        ("--grow-at-week", args.grow_at_week is not None),
        ("--network-faults", args.network_faults),
        ("--slo-out", args.slo_out),
        ("--health-out", args.health_out),
    ):
        if given and not fleet:
            print(
                f"{flag} requires --elastic or --shards > 1",
                file=sys.stderr,
            )
            return 2
    if args.transport_ledger_out and not args.network_faults:
        print(
            "--transport-ledger-out requires --network-faults",
            file=sys.stderr,
        )
        return 2
    if args.lease_ttl_cycles < 1:
        print("--lease-ttl-cycles must be >= 1", file=sys.stderr)
        return 2
    if args.revisions_out and not args.eventtime:
        print("--revisions-out requires --eventtime", file=sys.stderr)
        return 2
    if args.canary_floor is not None and not args.integrity:
        print("--canary-floor requires --integrity", file=sys.stderr)
        return 2
    if args.lineage_out and not args.integrity:
        print("--lineage-out requires --integrity", file=sys.stderr)
        return 2
    if args.model_rollback is not None:
        if not args.integrity:
            print("--model-rollback requires --integrity", file=sys.stderr)
            return 2
        if not (args.resume or args.recover):
            print(
                "--model-rollback requires --resume or --recover (the "
                "registry holding the target version lives in the "
                "checkpoint)",
                file=sys.stderr,
            )
            return 2
    for flag, given in (
        ("--lineage-out", args.lineage_out),
        ("--model-rollback", args.model_rollback is not None),
    ):
        if given and (args.eventtime or fleet):
            print(
                f"{flag} needs the single-service monitor "
                "(drop --eventtime/--elastic/--shards)",
                file=sys.stderr,
            )
            return 2
    if args.training_window is not None and args.training_window < 2:
        print("--training-window must be >= 2", file=sys.stderr)
        return 2
    if args.ramp_attack is not None and args.ramp_start_week < 0:
        print("--ramp-start-week must be >= 0", file=sys.stderr)
        return 2
    if args.eventtime:
        if fleet:
            print(
                "--eventtime does not support --shards > 1 or --elastic",
                file=sys.stderr,
            )
            return 2
        if args.checkpoint or args.resume:
            print(
                "--eventtime persists via --wal-dir delivery records; "
                "drop --checkpoint/--resume",
                file=sys.stderr,
            )
            return 2
        if (
            args.max_queue is not None
            or args.shed_policy != "off"
            or args.cycle_deadline_ms is not None
        ):
            print(
                "--eventtime has its own reorder-buffer backpressure; "
                "drop --max-queue/--shed-policy/--cycle-deadline-ms",
                file=sys.stderr,
            )
            return 2

    loadcontrol: LoadControlConfig | None = None
    if (
        args.max_queue is not None
        or args.shed_policy != "off"
        or args.cycle_deadline_ms is not None
    ):
        try:
            loadcontrol = LoadControlConfig(
                max_queue=args.max_queue if args.max_queue is not None else 1024,
                shed_policy=ShedPolicy(args.shed_policy),
                cycle_deadline_s=(
                    args.cycle_deadline_ms / 1000.0
                    if args.cycle_deadline_ms is not None
                    else None
                ),
            )
        except ConfigurationError as exc:
            print(str(exc), file=sys.stderr)
            return 2

    integrity = None
    if args.integrity:
        from repro.integrity import IntegrityConfig

        overrides = {}
        if args.canary_floor is not None:
            overrides["canary_floor"] = args.canary_floor
        try:
            integrity = IntegrityConfig(**overrides)
        except ConfigurationError as exc:
            print(str(exc), file=sys.stderr)
            return 2

    dataset = _dataset_from_args(args)
    ids = dataset.consumers()
    series = {cid: dataset.series(cid) for cid in ids}
    weeks = dataset.n_weeks

    if args.ramp_attack is not None:
        from repro.attacks.injection.ramp import BoilingFrogRampAttack

        if args.ramp_attack not in series:
            print(
                f"--ramp-attack: unknown consumer {args.ramp_attack!r}",
                file=sys.stderr,
            )
            return 2
        try:
            ramp = BoilingFrogRampAttack(
                weekly_decay=args.ramp_decay, floor=args.ramp_floor
            )
        except InjectionError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        series[args.ramp_attack] = ramp.poison_series(
            series[args.ramp_attack],
            start_slot=args.ramp_start_week * SLOTS_PER_WEEK,
        )
        print(
            f"ramp attack armed on {args.ramp_attack}: "
            f"x{args.ramp_decay:g}/week from week {args.ramp_start_week} "
            f"to floor {args.ramp_floor:g}",
            file=sys.stderr,
        )

    def factory():
        return KLDDetector(significance=args.significance)

    events = _event_logger_from_args(args)
    tracer = Tracer()

    def fresh_service(population=ids, eventtime=None) -> TheftMonitoringService:
        return TheftMonitoringService(
            detector_factory=factory,
            min_training_weeks=args.min_training_weeks,
            retrain_every_weeks=args.retrain_every_weeks,
            resilience=ResilienceConfig(min_coverage=args.min_coverage),
            population=population,
            events=events,
            tracer=tracer,
            firewall=ReadingFirewall(
                FirewallPolicy(max_reading_kwh=args.max_reading)
            ),
            loadcontrol=loadcontrol,
            eventtime=eventtime,
            integrity=integrity,
            training_window_weeks=args.training_window,
        )

    if args.eventtime:
        return _run_monitor_eventtime(
            args,
            ids=ids,
            series=series,
            weeks=weeks,
            fresh_service=fresh_service,
            events=events,
        )

    if fleet:
        return _run_monitor_fleet(
            args,
            ids=ids,
            series=series,
            weeks=weeks,
            factory=factory,
            fresh_service=fresh_service,
            loadcontrol=loadcontrol,
            events=events,
        )

    resumed = False
    if args.recover:
        try:
            result = recover_monitor(
                args.wal_dir,
                detector_factory=factory,
                checkpoint_path=args.checkpoint,
                service_factory=fresh_service,
                events=events,
                tracer=tracer,
            )
        except (CheckpointError, DurabilityError) as exc:
            print(f"recovery failed: {exc}", file=sys.stderr)
            return 2
        service = result.service
        resumed = result.restored_from_checkpoint or result.replayed_cycles > 0
        source = (
            f"{result.generation} checkpoint generation"
            if result.generation is not None
            else "no checkpoint"
        )
        print(
            f"recovered from {args.wal_dir} at week "
            f"{service.weeks_completed}, cycle {service.cycles_ingested} "
            f"({source}, {result.replayed_cycles} WAL cycle(s) replayed"
            + (", torn tail truncated" if result.torn_tail else "")
            + ")",
            file=sys.stderr,
        )
    elif args.checkpoint and args.resume and os.path.exists(args.checkpoint):
        try:
            service = TheftMonitoringService.restore(
                args.checkpoint, factory, events=events, tracer=tracer
            )
        except CheckpointError as exc:
            print(f"recovery failed: {exc}", file=sys.stderr)
            return 2
        resumed = True
        print(
            f"resumed from {args.checkpoint} at week "
            f"{service.weeks_completed}",
            file=sys.stderr,
        )
        if events is not None:
            events.info(
                "monitor_resumed",
                checkpoint=args.checkpoint,
                week=service.weeks_completed,
            )
    else:
        service = fresh_service()

    if args.model_rollback is not None:
        try:
            restored = service.rollback_model(args.model_rollback)
        except (ConfigurationError, DataError) as exc:
            print(f"model rollback failed: {exc}", file=sys.stderr)
            return 2
        print(
            f"rolled the active model back to v{restored.version} "
            f"(promoted at week {restored.week})",
            file=sys.stderr,
        )

    profiler = None
    if args.profile_out:
        from repro.observability.ops import StageProfiler

        profiler = service.profiler = StageProfiler()
    if args.wal_dir:
        try:
            wal = WriteAheadLog(args.wal_dir, metrics=service.metrics)
        except DurabilityError as exc:
            print(f"recovery failed: {exc}", file=sys.stderr)
            return 2
        monitor = DurableTheftMonitor(
            service,
            wal,
            checkpoint_path=args.checkpoint,
        )
        ingest = monitor.ingest_cycle
    else:
        monitor = None
        ingest = service.ingest_cycle
    ingestor = None
    if loadcontrol is not None:
        # The bounded queue + backpressure signal sit in front of
        # ingestion; its signal attaches itself to the service so
        # sustained pressure can trigger pre-shedding.
        ingestor = BufferedIngestor(
            ingest,
            config=loadcontrol,
            metrics=service.metrics,
            events=events,
        )
    channel = _monitor_channel(args)
    start_slot = service.cycles_ingested
    ingested = 0
    storage_degraded = False
    for t in range(start_slot, weeks * SLOTS_PER_WEEK):
        # One rng per cycle, keyed by (seed, cycle): a crashed-and-
        # recovered run resumes at cycle t with the exact noise a
        # never-crashed run would have drawn there, so recovery
        # equivalence is testable bit-for-bit.
        cycle_rng = np.random.default_rng((args.seed + 1, t))
        readings = {cid: float(series[cid][t]) for cid in ids}
        delivered = channel.transmit(readings, cycle_rng)
        try:
            report = _ingest_cycle(ingestor, ingest, delivered)
        except StorageDegradedError as exc:
            # Disk full: the monitor refused the cycle *before* any
            # byte landed, so nothing acknowledged is lost.  Committed
            # verdicts below stay servable; ingestion stops here.
            print(f"storage degraded at cycle {t}: {exc}", file=sys.stderr)
            storage_degraded = True
            break
        except StorageError as exc:
            print(
                f"unrecoverable storage failure at cycle {t}: {exc}",
                file=sys.stderr,
            )
            if events is not None:
                events.close()
            return 1
        ingested += 1
        if (
            args.crash_after_cycle is not None
            and ingested >= args.crash_after_cycle
        ):
            _simulated_crash(f"{ingested} cycle(s) (cycle {t})")
        if report is None:
            continue
        _print_monitor_week(report, shed=loadcontrol is not None)
        if args.checkpoint and monitor is None:
            try:
                service.checkpoint(args.checkpoint)
            except (StorageError, OSError) as exc:
                # Resumability is lost but the run's verdicts are not;
                # warn and keep monitoring.
                print(
                    f"warning: checkpoint write failed: {exc}",
                    file=sys.stderr,
                )
    if monitor is not None:
        try:
            monitor.close()
        except StorageError as exc:
            print(
                f"warning: final WAL sync failed: {exc}", file=sys.stderr
            )
    attackers = service.suspected_attackers()
    victims = service.suspected_victims()
    total_alerts = sum(len(report.alerts) for report in service.reports)
    print(
        f"monitored {len(ids)} consumers for {service.weeks_completed} weeks"
        + (" (resumed)" if resumed else "")
    )
    print(f"total alerts: {total_alerts}")
    print(f"suspected attackers: {list(attackers) or 'none'}")
    print(f"suspected victims:   {list(victims) or 'none'}")
    print(f"quarantined readings: {len(service.firewall.store)}")
    if args.quarantine_report:
        _safe_export(
            "quarantine report",
            args.quarantine_report,
            lambda: service.firewall.store.write_report(
                args.quarantine_report
            ),
        )
    if service.model_registry is not None:
        registry = service.model_registry
        active = registry.active_version
        print(
            "model: "
            + (
                f"v{active} active"
                if active is not None
                else "no promoted version"
            )
            + f", {len(registry.versions())} version(s) in the registry"
        )
        last = registry.last_event
        if last is not None:
            print(
                f"last model event: {last.kind} v{last.version} "
                f"(week {last.week})"
            )
        if args.lineage_out:
            _safe_export(
                "model lineage",
                args.lineage_out,
                lambda: registry.write_report(args.lineage_out),
            )
    if args.checkpoint:
        print(f"checkpoint: {args.checkpoint}")
    if profiler is not None:
        _safe_export(
            "stage profile",
            args.profile_out,
            lambda: profiler.write(args.profile_out),
        )
    _write_observability_outputs(args, service.metrics, service.tracer)
    if events is not None:
        events.close()
    return _monitor_exit_status(
        shed_total=sum(len(report.shed) for report in service.reports),
        overruns=ingestor.deadlines_overrun if ingestor is not None else 0,
        storage_degraded=storage_degraded,
    )


def _monitor_exit_status(
    shed_total: int, overruns: int, storage_degraded: bool = False
) -> int:
    """0 for a clean run; 4 when the run completed only by shedding
    load, overrunning its cycle deadline, or entering storage
    degraded read-only mode (distinct from hard failure: the weekly
    reports are valid, but coverage or continued ingestion was
    deliberately sacrificed and capacity should be revisited)."""
    if shed_total > 0 or overruns > 0 or storage_degraded:
        detail = (
            f"{shed_total} consumer-week(s) shed, "
            f"{overruns} deadline overrun(s)"
        )
        if storage_degraded:
            detail += ", storage went read-only (disk full)"
        print(f"completed in degraded mode: {detail}", file=sys.stderr)
        return 4
    return 0


def _monitor_channel(args: argparse.Namespace):
    """The lossy, fault-injecting AMI link every monitor run reads over."""
    from repro.metering.channel import LossyChannel
    from repro.resilience import FaultInjector, FaultyChannel

    return FaultyChannel(
        channel=LossyChannel(
            drop_rate=args.drop_rate, outage_rate=args.outage_rate
        ),
        faults=FaultInjector(corrupt_rate=args.corrupt_rate),
    )


def _ingest_cycle(ingestor, ingest, delivered):
    """Ingest one delivered cycle, through the load-control buffer when
    one is configured; returns what ``ingest`` returned for it."""
    if ingestor is None:
        return ingest(delivered)
    if not ingestor.submit(delivered):
        # Queue full: this replay driver is also the consumer, so "hold
        # and re-offer" means drain one cycle first.
        ingestor.drain(max_cycles=1)
        ingestor.submit(delivered)
    drained = ingestor.drain()
    return drained[-1] if drained else None


def _simulated_crash(detail: str) -> None:
    """``--crash-after-cycle``: a hard kill, not an exception.  Skips
    Python cleanup so the WAL is left exactly as a power cut would
    leave it."""
    import os

    print(f"simulated crash after {detail}", file=sys.stderr)
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(3)


def _print_monitor_week(*reports, suffix: str = "", shed: bool = False) -> None:
    """Print one week's verdict line and its alerts.

    A fleet passes every shard's report for the week; the line then
    sums them (coverage is the mean over all of their consumers).
    ``shed`` adds the shed consumer-week count (load-control runs).
    """
    coverage = [value for r in reports for value in r.coverage.values()]
    mean_coverage = sum(coverage) / len(coverage) if coverage else float("nan")
    line = (
        f"week {reports[0].week_index:>3}: "
        f"{sum(len(r.alerts) for r in reports)} alert(s), "
        f"coverage {mean_coverage:.1%}, "
        f"{sum(len(r.quarantined) for r in reports)} quarantined, "
        f"{sum(len(r.suppressed) for r in reports)} suppressed"
    )
    if shed:
        line += f", {sum(len(r.shed) for r in reports)} shed"
    print(line + suffix)
    for report in reports:
        for alert in report.alerts:
            print(
                f"    {alert.consumer_id}: {alert.nature.value} "
                f"(severity {alert.severity:.2f}, "
                f"coverage {alert.coverage:.1%})"
            )


def _run_monitor_eventtime(
    args: argparse.Namespace,
    ids,
    series,
    weeks: int,
    fresh_service,
    events,
) -> int:
    """``monitor --eventtime``: the out-of-order delivery path.

    Readings traverse the lossy/faulty channel and then a
    :class:`~repro.metering.scramble.ScramblingChannel`, so they reach
    the service late and out of order; the event-time ingestor reorders
    them, reconciles late arrivals, and revises verdicts.  Weekly lines
    printed during the stream are provisional; the ``final weekly
    verdicts`` section at the end matches an in-order run of the same
    dataset exactly (that equivalence is what CI diffs).

    The delivery schedule is a pure function of the dataset and seed, so
    a recovered run (``--recover`` with ``--wal-dir``) regenerates it
    and skips the batches the write-ahead log already holds.
    """
    import numpy as np

    from repro.durability.wal import WriteAheadLog
    from repro.errors import ConfigurationError, DurabilityError
    from repro.eventtime import (
        EventTimeConfig,
        EventTimeIngestor,
        replay_eventtime,
    )
    from repro.metering.scramble import ScramblingChannel
    from repro.timeseries.seasonal import SLOTS_PER_WEEK

    try:
        config = EventTimeConfig(
            lateness_slots=args.lateness_bound, grace_weeks=args.grace_weeks
        )
        # Capping backhaul delay at lateness + grace guarantees every
        # reading is reconciled before its week finalises (no too_late).
        scramble = ScramblingChannel(
            median_delay_slots=args.scramble_delay,
            max_delay_slots=config.lateness_slots + config.grace_slots,
            duplicate_rate=0.02 if args.scramble_delay > 0 else 0.0,
        )
    except ConfigurationError as exc:
        print(str(exc), file=sys.stderr)
        return 2

    def service_factory():
        return fresh_service(eventtime=config)

    channel = _monitor_channel(args)
    batches: list[list] = []
    for t in range(weeks * SLOTS_PER_WEEK):
        cycle_rng = np.random.default_rng((args.seed + 1, t))
        readings = {cid: float(series[cid][t]) for cid in ids}
        delivered = channel.transmit(readings, cycle_rng)
        scramble.push(t, delivered, cycle_rng)
        batches.append(scramble.pop_due(t))
    batches.append(scramble.drain())

    start_batch = 0
    if args.recover:
        try:
            ingestor, replay = replay_eventtime(
                args.wal_dir, service_factory, resume=True
            )
        except DurabilityError as exc:
            print(f"recovery failed: {exc}", file=sys.stderr)
            return 2
        service = ingestor.service
        start_batch = ingestor.deliveries
        print(
            f"recovered from {args.wal_dir}: {start_batch} delivery "
            "batch(es) replayed"
            + (", torn tail truncated" if replay.torn_tail else ""),
            file=sys.stderr,
        )
    else:
        service = service_factory()
        try:
            wal = (
                WriteAheadLog(args.wal_dir, metrics=service.metrics)
                if args.wal_dir
                else None
            )
        except DurabilityError as exc:
            print(f"recovery failed: {exc}", file=sys.stderr)
            return 2
        ingestor = EventTimeIngestor(service, wal=wal)
    profiler = None
    if args.profile_out:
        from repro.observability.ops import StageProfiler

        # Attached after any replay, so replayed batches are not profiled.
        profiler = service.profiler = StageProfiler()

    delivered_batches = 0
    for batch in batches[start_batch:]:
        outcome = ingestor.deliver(batch)
        delivered_batches += 1
        if (
            args.crash_after_cycle is not None
            and delivered_batches >= args.crash_after_cycle
        ):
            _simulated_crash(f"{delivered_batches} delivery batch(es)")
        for report in outcome.reports:
            _print_monitor_week(report, suffix=" (provisional)")
        for revision in outcome.revisions:
            print(
                f"    revision week {revision.week_index} "
                f"{revision.consumer_id} v{revision.version}: "
                f"{revision.kind.value} "
                f"(score {revision.score_before:.3f} -> "
                f"{revision.score_after:.3f})"
            )
    if not ingestor.finished:
        final = ingestor.finish()
        for report in final.reports:
            _print_monitor_week(report, suffix=" (provisional)")
    if ingestor.wal is not None:
        ingestor.wal.close()

    print("final weekly verdicts:")
    for report in service.reports:
        _print_monitor_week(report)

    attackers = service.suspected_attackers()
    victims = service.suspected_victims()
    total_alerts = sum(len(report.alerts) for report in service.reports)
    by_kind = service.revisions.counts_by_kind()
    print(
        f"monitored {len(ids)} consumers for {service.weeks_completed} "
        "weeks (event-time)"
    )
    print(f"total alerts: {total_alerts}")
    print(
        f"verdict revisions: {len(service.revisions)} "
        f"({by_kind.get('upgrade', 0)} upgrade(s), "
        f"{by_kind.get('downgrade', 0)} downgrade(s))"
    )
    print(f"suspected attackers: {list(attackers) or 'none'}")
    print(f"suspected victims:   {list(victims) or 'none'}")
    too_late = service.firewall.store.counts_by_reason().get("too_late", 0)
    print(
        f"quarantined readings: {len(service.firewall.store)} "
        f"(too_late: {too_late})"
    )
    if args.quarantine_report:
        _safe_export(
            "quarantine report",
            args.quarantine_report,
            lambda: service.firewall.store.write_report(
                args.quarantine_report
            ),
        )
    if args.revisions_out:
        _safe_export(
            "revision report",
            args.revisions_out,
            lambda: service.revisions.write_report(args.revisions_out),
        )
    if profiler is not None:
        _safe_export(
            "stage profile",
            args.profile_out,
            lambda: profiler.write(args.profile_out),
        )
    _write_observability_outputs(args, service.metrics, service.tracer)
    if events is not None:
        events.close()
    return _monitor_exit_status(
        shed_total=sum(len(report.shed) for report in service.reports),
        overruns=0,
    )


def _run_monitor_fleet(
    args: argparse.Namespace,
    ids,
    series,
    weeks: int,
    factory,
    fresh_service,
    loadcontrol,
    events,
) -> int:
    """``monitor --shards N`` / ``monitor --elastic``: the shard fleet.

    Shards are placed on a hash ring and each keeps its own WAL and
    checkpoint under ``--wal-dir``; the fleet manifest there makes
    recovery implicit (a directory with per-shard state but no manifest
    recovers too), and ``--grow-at-week N`` performs a live
    snapshot+WAL shard handoff at the start of week ``N``.  Load
    control (``--max-queue``/``--shed-policy``/``--cycle-deadline-ms``)
    buffers the fleet's cycles exactly as it does a single service's.
    """
    import numpy as np

    from repro.errors import (
        CheckpointError,
        ConfigurationError,
        DurabilityError,
    )
    from repro.loadcontrol import BufferedIngestor
    from repro.observability.metrics import MetricsRegistry
    from repro.quarantine import QuarantineStore
    from repro.scaleout import ElasticFleet
    from repro.timeseries.seasonal import SLOTS_PER_WEEK
    from repro.transport import FaultyTransport, parse_network_faults

    transport = None
    net_schedule = None
    if args.network_faults:
        try:
            net_schedule = parse_network_faults(
                ",".join(args.network_faults)
            )
        except ConfigurationError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        transport = FaultyTransport(net_schedule)
        print(
            f"network-fault injection armed: {len(net_schedule.events)} "
            "scheduled fault(s)",
            file=sys.stderr,
        )
    fleet_metrics = MetricsRegistry()
    fleet_tracer = Tracer(name="fleet") if args.trace_out else None
    slo = None
    if args.slo_out:
        from repro.observability.ops import SLOTracker, default_fleet_objectives

        slo = SLOTracker(default_fleet_objectives())
    try:
        fleet = ElasticFleet(
            ids,
            args.wal_dir,
            lambda consumers: fresh_service(consumers),
            factory,
            n_shards=args.shards,
            metrics=fleet_metrics,
            events=events,
            tracer=fleet_tracer,
            slo=slo,
            transport=transport,
            lease_ttl_cycles=args.lease_ttl_cycles,
        )
    except ConfigurationError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except (CheckpointError, DurabilityError) as exc:
        # Opening a fleet recovers every shard from its WAL.
        print(f"recovery failed: {exc}", file=sys.stderr)
        return 2
    ingestor = None
    if loadcontrol is not None:
        # The buffer's backpressure signal attaches itself to the fleet,
        # which hands it to every shard service it builds.
        ingestor = BufferedIngestor(
            fleet.ingest_cycle,
            config=loadcontrol,
            metrics=fleet_metrics,
            events=events,
        )
    profiler = None
    if args.profile_out:
        from repro.observability.ops import StageProfiler

        # Shared across shards: the fleet attaches it to every shard
        # service it builds, so heal restarts and added shards stay in
        # the one profile of the whole write path.
        profiler = fleet.profiler = StageProfiler()
    channel = _monitor_channel(args)
    start_slot = fleet.cycle
    if start_slot:
        # A shard whose current checkpoint was corrupt fell back to the
        # previous generation: name it, or the lost generation would
        # show only in the event log and the corruption counter.
        fallbacks = [
            w.name for w in fleet.workers() if w.generation == "previous"
        ]
        fallback_note = (
            f"; previous checkpoint generation: {', '.join(fallbacks)}"
            if fallbacks
            else ""
        )
        print(
            f"fleet resumed at cycle {start_slot} "
            f"({len(fleet.shards)} shard(s) recovered from {args.wal_dir}"
            f"{fallback_note})",
            file=sys.stderr,
        )
    grow_cycle = (
        args.grow_at_week * SLOTS_PER_WEEK
        if args.grow_at_week is not None
        else None
    )
    ingested = 0
    try:
        for t in range(start_slot, weeks * SLOTS_PER_WEEK):
            if grow_cycle is not None and t == grow_cycle:
                before = {
                    w.name: set(w.consumers) for w in fleet.workers()
                }
                new_shard = fleet.add_shard()
                moved = sum(
                    len(members - set(fleet._worker(name).consumers))
                    for name, members in before.items()
                )
                print(
                    f"live rebalance at cycle {t}: added {new_shard}, "
                    f"moved {moved}/{len(ids)} consumers",
                    file=sys.stderr,
                )
            cycle_rng = np.random.default_rng((args.seed + 1, t))
            readings = {cid: float(series[cid][t]) for cid in ids}
            delivered = channel.transmit(readings, cycle_rng)
            result = _ingest_cycle(ingestor, fleet.ingest_cycle, delivered)
            shard_reports = [
                r for r in (result or {}).values() if r is not None
            ]
            if slo is not None and shard_reports:
                # One SLO observation per completed week: enough points
                # for the burn-rate windows without paying a fleet-wide
                # registry merge on every polling cycle.
                fleet.observe_slo()
            ingested += 1
            if (
                args.crash_after_cycle is not None
                and ingested >= args.crash_after_cycle
            ):
                _simulated_crash(f"{ingested} cycle(s) (cycle {t})")
            if shard_reports:
                _print_monitor_week(
                    *shard_reports,
                    shed=loadcontrol is not None,
                    suffix=f" [{len(shard_reports)}/{len(fleet.shards)} shards]",
                )
        if transport is not None:
            # Heal every severed link and replay the partition buffers
            # so the final verdicts converge before they are merged.
            transport.heal_all()
            replayed = fleet.drain_backlog()
            if replayed:
                print(
                    f"partition healed: replayed {replayed} buffered "
                    "cycle(s)",
                    file=sys.stderr,
                )
        services = fleet.services()
        # A consumer migrated mid-run appears in both its source and
        # destination shard's histories; dedupe the fleet-wide verdicts.
        attackers = sorted(
            {
                cid
                for svc in services.values()
                for cid in svc.suspected_attackers()
            }
        )
        victims = sorted(
            {
                cid
                for svc in services.values()
                for cid in svc.suspected_victims()
            }
        )
        merged = fleet.merged_reports()
        total_alerts = sum(len(report.alerts) for report in merged)
        print(
            f"monitored {len(ids)} consumers for {len(merged)} weeks "
            f"across {len(fleet.shards)} elastic shard(s)"
        )
        print(f"total alerts: {total_alerts}")
        print(f"suspected attackers: {attackers or 'none'}")
        print(f"suspected victims:   {victims or 'none'}")
        quarantine = QuarantineStore()
        for svc in services.values():
            quarantine.merge(svc.firewall.store)
        print(f"quarantined readings: {len(quarantine)}")
        if args.quarantine_report:
            _safe_export(
                "quarantine report",
                args.quarantine_report,
                lambda: quarantine.write_report(args.quarantine_report),
            )
        print(f"fleet restarts: {fleet.restarts_total}")
        print(
            "shard epochs: "
            + ", ".join(
                f"{name}={fleet.epoch(name)}" for name in fleet.shards
            )
        )
        shed_total = sum(
            len(report.shed)
            for svc in services.values()
            for report in svc.reports
        )
        storage_degraded = any(
            getattr(w.monitor, "read_only", False)
            for w in fleet.workers()
            if w.monitor is not None
        )
        if args.health_out:
            _safe_export(
                "health report",
                args.health_out,
                lambda: fleet.health_report().write(args.health_out),
            )
        if slo is not None:
            fleet.observe_slo()
            _safe_export(
                "SLO report",
                args.slo_out,
                lambda: fleet.slo_report().write(args.slo_out),
            )
        if profiler is not None:
            _safe_export(
                "stage profile",
                args.profile_out,
                lambda: profiler.write(args.profile_out),
            )
        if args.trace_out and fleet_tracer is not None:
            from repro.observability.tracing import stitch_traces
            from repro.storage import atomic_write_json

            _safe_export(
                "trace",
                args.trace_out,
                lambda: atomic_write_json(
                    args.trace_out,
                    {"spans": stitch_traces(fleet.tracers())},
                    site="export.trace",
                    sort_keys=True,
                ),
            )
        merged_metrics = fleet.merged_metrics()
        merged_metrics.merge_snapshot(fleet_metrics.snapshot())
        _write_observability_outputs(args, merged_metrics, None)
    finally:
        fleet.close()
        if net_schedule is not None:
            print(
                f"network faults injected: {net_schedule.injected}/"
                f"{len(net_schedule.events)}",
                file=sys.stderr,
            )
            if args.transport_ledger_out:
                _write_ledger(
                    "transport ledger",
                    args.transport_ledger_out,
                    net_schedule.to_dict(),
                )
    if events is not None:
        events.close()
    return _monitor_exit_status(
        shed_total=shed_total,
        overruns=ingestor.deadlines_overrun if ingestor is not None else 0,
        storage_degraded=storage_degraded,
    )


def _cmd_status(args: argparse.Namespace) -> int:
    """``status``: render the fleet ops dashboard from exported state.

    Everything is read from files — the fleet manifest (topology +
    epochs + pending handoff) plus the JSON reports the ``monitor``
    subcommand exports via ``--health-out``/``--slo-out``/
    ``--profile-out`` — so the dashboard works on a live fleet's
    directory or on artifacts uploaded from a finished run.
    """
    import json
    import os

    from repro.errors import HandoffError
    from repro.observability.ops import render_status
    from repro.scaleout.handoff import read_manifest

    def _load(path: str | None, label: str):
        if not path:
            return None
        try:
            with open(path, encoding="utf-8") as handle:
                return json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"cannot read {label} {path!r}: {exc}", file=sys.stderr)
            raise SystemExit(2) from exc

    manifest = None
    if args.fleet_dir:
        manifest_path = args.fleet_dir
        if os.path.isdir(manifest_path):
            manifest_path = os.path.join(manifest_path, "fleet.json")
        try:
            manifest = read_manifest(manifest_path)
        except HandoffError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        if manifest is None:
            print(f"no fleet manifest at {manifest_path!r}", file=sys.stderr)
            return 2
    health = _load(args.health, "health report")
    slo = _load(args.slo, "SLO report")
    profile = _load(args.profile, "stage profile")
    if manifest is None and health is None and slo is None and profile is None:
        print(
            "nothing to show: pass --fleet-dir and/or --health/--slo/"
            "--profile",
            file=sys.stderr,
        )
        return 2
    if args.json:
        print(
            json.dumps(
                {
                    "manifest": manifest,
                    "health": health,
                    "slo": slo,
                    "profile": profile,
                },
                indent=2,
                sort_keys=True,
            )
        )
    else:
        print(
            render_status(
                manifest=manifest,
                health=health,
                slo=slo,
                profile=profile,
                top=args.top,
            )
        )
    return 0


def _cmd_ablation(args: argparse.Namespace) -> int:
    dataset = _dataset_from_args(args)
    consumers = dataset.consumers()[: args.sample]
    points = bin_count_sweep(dataset, consumers)
    print(f"{'bins':>6}{'detection':>12}{'false pos.':>12}")
    for point in points:
        print(
            f"{point.parameter:>6.0f}{point.detection_rate:>11.1%}"
            f"{point.false_positive_rate:>11.1%}"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fdeta",
        description="F-DETA electricity-theft detection (DSN 2016 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a synthetic CER-format dataset")
    gen.add_argument("output", type=str, help="output file path")
    gen.add_argument("--consumers", type=int, default=500)
    gen.add_argument("--weeks", type=int, default=74)
    gen.add_argument("--seed", type=int, default=2016)
    gen.set_defaults(func=_cmd_generate)

    t1 = sub.add_parser("table1", help="print the attack classification matrix")
    t1.set_defaults(func=_cmd_table1)

    ev = sub.add_parser("evaluate", help="run the Section VIII evaluation")
    _add_dataset_options(ev)
    ev.add_argument("--vectors", type=int, default=50, help="attack trajectories")
    ev.add_argument("--eval-seed", type=int, default=7)
    ev.add_argument(
        "--parallel", type=int, default=1, help="worker processes (1 = serial)"
    )
    ev.add_argument("--verbose", action="store_true")
    _add_observability_options(ev)
    ev.set_defaults(func=_cmd_evaluate)

    topo = sub.add_parser("topology", help="generate/inspect a grid topology")
    topo.add_argument("--consumers", type=int, default=16)
    topo.add_argument("--branching", type=int, default=4)
    topo.add_argument("--seed", type=int, default=0)
    topo.add_argument("--load", type=str, default=None, help="topology JSON")
    topo.add_argument("--save", type=str, default=None, help="write JSON here")
    topo.add_argument("--ascii", action="store_true", help="plain markers")
    topo.set_defaults(func=_cmd_topology)

    stats = sub.add_parser("stats", help="print dataset summary statistics")
    _add_dataset_options(stats)
    stats.set_defaults(func=_cmd_stats)

    rep = sub.add_parser("report", help="write a markdown evaluation report")
    _add_dataset_options(rep)
    rep.add_argument("--vectors", type=int, default=50)
    rep.add_argument("--eval-seed", type=int, default=7)
    rep.add_argument("--output", type=str, default=None)
    rep.set_defaults(func=_cmd_report)

    mon = sub.add_parser(
        "monitor",
        help="replay a dataset through the online service over a lossy link",
    )
    _add_dataset_options(mon)
    mon.add_argument("--drop-rate", type=float, default=0.02)
    mon.add_argument("--outage-rate", type=float, default=0.0005)
    mon.add_argument("--corrupt-rate", type=float, default=0.0)
    mon.add_argument("--significance", type=float, default=0.05)
    mon.add_argument("--min-training-weeks", type=int, default=8)
    mon.add_argument("--retrain-every-weeks", type=int, default=4)
    mon.add_argument(
        "--min-coverage",
        type=float,
        default=0.5,
        help="suppress alerts for weeks observed below this fraction",
    )
    mon.add_argument(
        "--checkpoint", type=str, default=None, help="checkpoint file path"
    )
    mon.add_argument(
        "--resume",
        action="store_true",
        help="resume from --checkpoint if it exists",
    )
    mon.add_argument(
        "--wal-dir",
        type=str,
        default=None,
        help="write-ahead log directory: every cycle is logged and "
        "fsynced before ingestion",
    )
    mon.add_argument(
        "--recover",
        action="store_true",
        help="reconcile --checkpoint (if any) with the --wal-dir log "
        "before continuing: replays the WAL tail a crash cut off, from "
        "the previous checkpoint generation if the current one is "
        "corrupt",
    )
    mon.add_argument(
        "--quarantine-report",
        type=str,
        default=None,
        help="write the firewall's quarantine report (JSON) here",
    )
    mon.add_argument(
        "--max-reading",
        type=float,
        default=1000.0,
        help="physical kWh ceiling per half-hour slot; readings above "
        "it are quarantined as out_of_range",
    )
    mon.add_argument(
        "--crash-after-cycle",
        type=int,
        default=None,
        help="hard-kill the process (exit 3) after ingesting N cycles "
        "(crash-recovery testing)",
    )
    mon.add_argument(
        "--max-queue",
        type=int,
        default=None,
        help="bound the ingestion queue to N pending cycles (enables "
        "the backpressure signal)",
    )
    mon.add_argument(
        "--shed-policy",
        choices=["off", "priority", "uniform"],
        default="off",
        help="load-shedding policy under overload: priority sheds the "
        "healthy tier first (suspects always scored), uniform sheds "
        "tier-blind, off never sheds",
    )
    mon.add_argument(
        "--cycle-deadline-ms",
        type=float,
        default=None,
        help="per-cycle time budget in milliseconds; an exhausted "
        "budget sheds the rest of the weekly scoring pass",
    )
    mon.add_argument(
        "--storage-faults",
        action="append",
        default=None,
        metavar="SPEC",
        help="inject deterministic storage faults: comma-separated "
        "SITE:OP@N=KIND entries (e.g. 'wal.append:write@3=torn'); "
        "sites glob (wal.*, export.*), ops are "
        "open/write/fsync/replace/fsync_dir/*, kinds are "
        "enospc/eio/torn/lying_fsync/bitrot; repeatable",
    )
    mon.add_argument(
        "--fault-ledger-out",
        type=str,
        default=None,
        help="write the injected-fault ledger (JSON) here "
        "(requires --storage-faults)",
    )
    mon.add_argument(
        "--network-faults",
        action="append",
        default=None,
        metavar="SPEC",
        help="inject deterministic transport faults into the shard "
        "fleet's message seam: comma-separated SHARD:OP@N=KIND entries "
        "(e.g. 'shard-0000:ingest@40=partition'); shards glob "
        "(shard-*), ops are ingest/heartbeat/checkpoint/extract/adopt/"
        "lease.acquire/*, kinds are drop/delay/dup/reorder/garble/"
        "partition/heal; requires --elastic or --shards > 1; repeatable",
    )
    mon.add_argument(
        "--transport-ledger-out",
        type=str,
        default=None,
        help="write the injected network-fault ledger (JSON) here "
        "(requires --network-faults)",
    )
    mon.add_argument(
        "--lease-ttl-cycles",
        type=int,
        default=8,
        help="shard ownership lease TTL in ingest cycles for the "
        "elastic fleet (default 8); writes renew the lease, so only a "
        "silent coordinator can lose one",
    )
    mon.add_argument(
        "--eventtime",
        action="store_true",
        help="deliver readings out of order through the watermarked "
        "event-time pipeline: a reorder buffer releases slot-contiguous "
        "runs, late arrivals are reconciled into versioned verdict "
        "revisions, and the final weekly verdicts match an in-order run",
    )
    mon.add_argument(
        "--lateness-bound",
        type=int,
        default=48,
        help="slots the watermark trails the event-time frontier; "
        "deliveries inside the bound are reordered, not late",
    )
    mon.add_argument(
        "--grace-weeks",
        type=int,
        default=1,
        help="weeks a scored verdict stays open to late-reading "
        "reconciliation before finalising (later arrivals are "
        "quarantined too_late)",
    )
    mon.add_argument(
        "--scramble-delay",
        type=float,
        default=2.0,
        help="median backhaul delivery delay in slots for --eventtime "
        "(0 delivers in order)",
    )
    mon.add_argument(
        "--revisions-out",
        type=str,
        default=None,
        help="write the verdict-revision report (JSON) here "
        "(requires --eventtime)",
    )
    mon.add_argument(
        "--shards",
        type=int,
        default=1,
        help="run the monitor as a fleet of N shards placed on a "
        "consistent-hash ring (requires --wal-dir; each shard keeps its "
        "own WAL and checkpoint and is restarted from them if it dies)",
    )
    mon.add_argument(
        "--elastic",
        action="store_true",
        help="run the shard fleet even with --shards 1 (requires "
        "--wal-dir; the fleet manifest there makes crash recovery "
        "implicit and shards can be added live via snapshot+WAL "
        "handoff)",
    )
    mon.add_argument(
        "--grow-at-week",
        type=int,
        default=None,
        help="with --elastic or --shards > 1: add one shard live at the "
        "start of week N "
        "(a quiesce -> snapshot -> commit -> install -> finalize handoff)",
    )
    mon.add_argument(
        "--integrity",
        action="store_true",
        help="arm the training-integrity defenses: per-consumer drift "
        "sentinels screen suspect weeks out of every retraining, fits "
        "are winsorized, and each retrained model becomes a registry "
        "candidate that must pass the canary gate before promotion",
    )
    mon.add_argument(
        "--canary-floor",
        type=float,
        default=None,
        help="minimum canary detection rate a candidate model must "
        "reach to be promoted (requires --integrity; default 0.7)",
    )
    mon.add_argument(
        "--training-window",
        type=int,
        default=None,
        metavar="WEEKS",
        help="retrain on at most the most recent WEEKS eligible weeks "
        "instead of the full history",
    )
    mon.add_argument(
        "--model-rollback",
        type=int,
        default=None,
        metavar="VERSION",
        help="after --resume/--recover with --integrity: roll the "
        "active model back to registry VERSION before continuing "
        "(one command; subsequent verdicts are bit-identical to a run "
        "that never promoted the newer versions)",
    )
    mon.add_argument(
        "--lineage-out",
        type=str,
        default=None,
        help="write the model registry lineage report (JSON) here "
        "(requires --integrity)",
    )
    mon.add_argument(
        "--ramp-attack",
        type=str,
        default=None,
        metavar="CONSUMER",
        help="poison CONSUMER's reported series with a boiling-frog "
        "ramp: consumption shaved by --ramp-decay per week from "
        "--ramp-start-week down to --ramp-floor, slow enough that "
        "naive retraining absorbs the theft into the baseline",
    )
    mon.add_argument(
        "--ramp-start-week",
        type=int,
        default=8,
        help="week the ramp attack starts (default 8)",
    )
    mon.add_argument(
        "--ramp-decay",
        type=float,
        default=0.97,
        help="multiplicative per-week ramp factor in (0, 1) "
        "(default 0.97; closer to 1 evades longer)",
    )
    mon.add_argument(
        "--ramp-floor",
        type=float,
        default=0.45,
        help="terminal fraction of actual consumption the ramp holds "
        "at once reached (default 0.45)",
    )
    _add_observability_options(mon)
    _add_ops_options(mon)
    mon.set_defaults(func=_cmd_monitor)

    st = sub.add_parser(
        "status",
        help="render the fleet ops dashboard from a manifest and "
        "exported health/SLO/profile reports",
    )
    st.add_argument(
        "--fleet-dir",
        type=str,
        default=None,
        help="fleet directory (reads fleet.json) or manifest file path",
    )
    st.add_argument(
        "--health", type=str, default=None, help="health report JSON"
    )
    st.add_argument("--slo", type=str, default=None, help="SLO report JSON")
    st.add_argument(
        "--profile", type=str, default=None, help="stage profile JSON"
    )
    st.add_argument(
        "--top", type=int, default=10, help="hot stages shown (default 10)"
    )
    st.add_argument(
        "--json",
        action="store_true",
        help="emit the merged raw JSON instead of the rendered dashboard",
    )
    st.set_defaults(func=_cmd_status)

    ab = sub.add_parser("ablation", help="histogram bin-count sweep")
    _add_dataset_options(ab)
    ab.add_argument("--sample", type=int, default=20, help="consumers to use")
    ab.set_defaults(func=_cmd_ablation)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Output piped into a pager/head that closed early; not an error.
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
