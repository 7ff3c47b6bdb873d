"""End-to-end acceptance: a faulted 20-consumer monitoring session.

Drives the online service over a fault-injecting channel with a theft
attack and a silenced meter, then asserts the exported telemetry is the
real thing: a Prometheus file that passes the validating parser and
carries breaker-state gauges, alert counters by attack class, and the
ingest-latency histogram; a JSONL event log; and a span trace tree.
The CLI flags (``--metrics-out`` / ``--trace-out`` / ``--log-json``)
are exercised through ``main()``.
"""

import json

import numpy as np
import pytest

from repro.core.framework import AnomalyNature
from repro.core.kld import KLDDetector
from repro.core.online import TheftMonitoringService
from repro.metering.channel import LossyChannel
from repro.observability.events import EventLogger
from repro.observability.metrics import parse_prometheus
from repro.observability.tracing import Tracer
from repro.resilience import FaultInjector, FaultyChannel, ResilienceConfig
from repro.timeseries.seasonal import SLOTS_PER_WEEK

_CONSUMERS = 20
_WEEKS = 12
_TRAIN_WEEKS = 4
_THEFT_FROM_WEEK = 6  # attacker under-reports from here on
_SILENT_FROM_WEEK = 6  # this meter goes dark (breaker must open)


@pytest.fixture(scope="module")
def session(tmp_path_factory):
    """Run the faulted session once; every test inspects its artefacts."""
    from repro.data.synthetic import (
        SyntheticCERConfig,
        generate_cer_like_dataset,
    )

    out = tmp_path_factory.mktemp("telemetry")
    dataset = generate_cer_like_dataset(
        SyntheticCERConfig(n_consumers=_CONSUMERS, n_weeks=_WEEKS, seed=42)
    )
    ids = dataset.consumers()
    series = {cid: dataset.series(cid) for cid in ids}
    thief, silent, flaky = ids[0], ids[1], ids[2]

    events_path = out / "events.jsonl"
    service = TheftMonitoringService(
        detector_factory=lambda: KLDDetector(significance=0.05),
        min_training_weeks=_TRAIN_WEEKS,
        retrain_every_weeks=6,
        resilience=ResilienceConfig(min_coverage=0.5),
        population=ids,
        events=EventLogger(path=events_path),
        tracer=Tracer(),
    )
    channel = FaultyChannel(
        channel=LossyChannel(drop_rate=0.02, outage_rate=0.0),
        faults=FaultInjector(corrupt_rate=0.002),
    )
    rng = np.random.default_rng(7)
    for t in range(_WEEKS * SLOTS_PER_WEEK):
        week = t // SLOTS_PER_WEEK
        readings = {cid: float(series[cid][t]) for cid in ids}
        if week >= _THEFT_FROM_WEEK:
            readings[thief] *= 0.25  # Attack-Class-2 style under-report
        if week >= _SILENT_FROM_WEEK:
            del readings[silent]
        if week >= _TRAIN_WEEKS and t % 100 < 6:
            # Gap runs of 6: longer than max_repair_gap (the week scores
            # in degraded mode) but below the breaker's 8-failure trip.
            del readings[flaky]
        service.ingest_cycle(channel.transmit(readings, rng))
    service.events.close()

    metrics_path = out / "metrics.prom"
    trace_path = out / "trace.json"
    service.metrics.write_prometheus(metrics_path)
    service.tracer.write(trace_path)
    return {
        "service": service,
        "thief": thief,
        "silent": silent,
        "metrics_path": metrics_path,
        "events_path": events_path,
        "trace_path": trace_path,
    }


class TestPrometheusArtifact:
    def test_file_parses_as_valid_exposition(self, session):
        families = parse_prometheus(session["metrics_path"].read_text())
        assert families  # not empty

    def test_breaker_state_gauges_cover_the_population(self, session):
        families = parse_prometheus(session["metrics_path"].read_text())
        states = dict(
            (labels["state"], value)
            for labels, value in families["fdeta_breaker_state_consumers"]
        )
        assert set(states) == {"closed", "open", "half_open"}
        assert sum(states.values()) == _CONSUMERS
        # The silenced meter is out of the closed state by the end (open,
        # or half_open while a doomed recovery probe is in flight).
        assert states["open"] + states["half_open"] >= 1

    def test_breaker_transitions_were_counted(self, session):
        families = parse_prometheus(session["metrics_path"].read_text())
        transitions = {
            (labels["from_state"], labels["to_state"]): value
            for labels, value in families["fdeta_breaker_transitions_total"]
        }
        assert transitions[("closed", "open")] >= 1

    def test_alert_counters_by_attack_class(self, session):
        families = parse_prometheus(session["metrics_path"].read_text())
        natures = {
            labels["nature"] for labels, _ in families["fdeta_alerts_total"]
        }
        known = {nature.value for nature in AnomalyNature}
        assert natures and natures <= known
        assert AnomalyNature.SUSPECTED_ATTACKER.value in natures
        severities = {
            labels["severity"]
            for labels, _ in families["fdeta_alerts_total"]
        }
        assert severities <= {"marginal", "elevated", "critical"}

    def test_ingest_latency_histogram_counts_every_cycle(self, session):
        families = parse_prometheus(session["metrics_path"].read_text())
        ((_labels, count),) = families["fdeta_ingest_cycle_seconds_count"]
        assert count == _WEEKS * SLOTS_PER_WEEK
        assert "fdeta_ingest_cycle_seconds_bucket" in families

    def test_degraded_weeks_and_coverage_recorded(self, session):
        families = parse_prometheus(session["metrics_path"].read_text())
        assert families["fdeta_degraded_weeks_total"][0][1] >= 1
        assert "fdeta_week_coverage_fraction_bucket" in families
        assert families["fdeta_weeks_completed_total"][0][1] == _WEEKS

    def test_service_flagged_the_thief(self, session):
        assert session["thief"] in session["service"].suspected_attackers()


class TestEventLogArtifact:
    def test_every_line_is_a_json_event(self, session):
        lines = session["events_path"].read_text().splitlines()
        assert lines
        for line in lines:
            record = json.loads(line)
            assert {"ts", "level", "event"} <= set(record)

    def test_alerts_and_breaker_transitions_are_logged(self, session):
        records = [
            json.loads(line)
            for line in session["events_path"].read_text().splitlines()
        ]
        by_event = {record["event"] for record in records}
        assert {
            "week_completed",
            "theft_alert",
            "breaker_transition",
            "detectors_trained",
        } <= by_event
        thief_alerts = [
            r
            for r in records
            if r["event"] == "theft_alert"
            and r["consumer"] == session["thief"]
        ]
        assert thief_alerts
        assert all(alert["level"] == "warning" for alert in thief_alerts)
        # A corrupted-frame spike can dominate one week's mean and flip
        # its triage, but the sustained under-reporting must show up as
        # suspected-attacker alerts.
        assert AnomalyNature.SUSPECTED_ATTACKER.value in {
            alert["nature"] for alert in thief_alerts
        }


class TestTraceArtifact:
    def test_trace_tree_has_week_spans_with_children(self, session):
        tree = json.loads(session["trace_path"].read_text())
        weeks = [span for span in tree["spans"] if span["name"] == "week"]
        assert len(weeks) == _WEEKS
        child_names = {
            child["name"] for span in weeks for child in span["children"]
        }
        assert "assess" in child_names
        assert all(span["duration_s"] >= 0.0 for span in weeks)

    def test_train_spans_nest_under_weeks(self, session):
        tracer = session["service"].tracer
        trains = [span for span in tracer.spans() if span.name == "train"]
        assert trains
        assert all(span.finished for span in trains)


class TestCLIFlags:
    def test_monitor_writes_all_three_artifacts(self, tmp_path, capsys):
        from repro.cli import main

        metrics = tmp_path / "metrics.prom"
        trace = tmp_path / "trace.json"
        log = tmp_path / "events.jsonl"
        code = main(
            [
                "monitor",
                "--consumers", "5",
                "--weeks", "7",
                "--seed", "3",
                "--min-training-weeks", "4",
                "--drop-rate", "0.02",
                "--metrics-out", str(metrics),
                "--trace-out", str(trace),
                "--log-json", str(log),
            ]
        )
        assert code == 0
        families = parse_prometheus(metrics.read_text())
        assert families["fdeta_weeks_completed_total"][0][1] == 7
        assert "fdeta_ingest_cycle_seconds_bucket" in families
        tree = json.loads(trace.read_text())
        assert any(span["name"] == "week" for span in tree["spans"])
        records = [
            json.loads(line) for line in log.read_text().splitlines()
        ]
        assert any(r["event"] == "week_completed" for r in records)

    def test_evaluate_writes_json_snapshot(self, tmp_path, capsys):
        from repro.cli import main
        from repro.observability.metrics import MetricsRegistry

        out = tmp_path / "metrics.json"
        code = main(
            [
                "evaluate",
                "--consumers", "3",
                "--weeks", "74",
                "--vectors", "2",
                "--metrics-out", str(out),
            ]
        )
        assert code == 0
        registry = MetricsRegistry()
        registry.merge_snapshot(json.loads(out.read_text()))
        assert registry.counter("fdeta_eval_consumers_total").value() == 3
