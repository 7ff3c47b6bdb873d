"""Regression: telemetry survives checkpoint/restore and keeps counting.

The metrics registry and tracer ride inside the checkpoint payload, so a
resumed monitoring session continues its counters instead of resetting
them — `fdeta_weeks_completed_total` after a crash-and-resume run equals
the uninterrupted run's value.
"""

import pytest

from repro.core.kld import KLDDetector
from repro.core.online import TheftMonitoringService
from repro.observability.tracing import Tracer
from repro.resilience import ResilienceConfig
from repro.timeseries.seasonal import SLOTS_PER_WEEK

_WEEKS = 12
_CHECKPOINT_AT = 8 * SLOTS_PER_WEEK + 117  # mid-week, not a boundary


def _factory():
    return KLDDetector(significance=0.05)


def _make_service():
    return TheftMonitoringService(
        detector_factory=_factory,
        min_training_weeks=6,
        retrain_every_weeks=3,
        resilience=ResilienceConfig(min_coverage=0.6),
        tracer=Tracer(),
    )


@pytest.fixture(scope="module")
def cycles(paper_dataset):
    ids = paper_dataset.consumers()[:3]
    series = {cid: paper_dataset.series(cid) for cid in ids}
    return [
        {cid: float(series[cid][t]) for cid in ids}
        for t in range(_WEEKS * SLOTS_PER_WEEK)
    ]


@pytest.fixture(scope="module")
def round_trip(cycles, tmp_path_factory):
    """One interrupted run: ingest, checkpoint mid-week, restore."""
    path = tmp_path_factory.mktemp("ckpt") / "service.ckpt"
    service = _make_service()
    for cycle in cycles[:_CHECKPOINT_AT]:
        service.ingest_cycle(cycle)
    service.checkpoint(path)
    restored = TheftMonitoringService.restore(path, _factory)
    return service, restored


class TestStateSurvivesRestore:
    def test_metrics_snapshot_is_bit_identical(self, round_trip):
        service, restored = round_trip
        assert restored.metrics.snapshot() == service.metrics.snapshot()

    def test_prometheus_exposition_is_byte_identical(self, round_trip):
        service, restored = round_trip
        assert (
            restored.metrics.to_prometheus()
            == service.metrics.to_prometheus()
        )

    def test_trace_tree_is_identical(self, round_trip):
        service, restored = round_trip
        assert restored.tracer is not None
        assert restored.tracer.to_dict() == service.tracer.to_dict()
        assert len(list(restored.tracer.spans())) > 0

    def test_counters_captured_mid_run_are_nonzero(self, round_trip):
        service, _restored = round_trip
        counters = service.metrics
        assert (
            counters.counter("fdeta_ingest_cycles_total").value()
            == _CHECKPOINT_AT
        )
        assert counters.counter("fdeta_weeks_completed_total").value() == 8


class TestCountersContinueAfterResume:
    def test_resumed_totals_match_uninterrupted_run(self, cycles, tmp_path):
        reference = _make_service()
        for cycle in cycles:
            reference.ingest_cycle(cycle)

        interrupted = _make_service()
        path = tmp_path / "service.ckpt"
        for cycle in cycles[:_CHECKPOINT_AT]:
            interrupted.ingest_cycle(cycle)
        interrupted.checkpoint(path)
        resumed = TheftMonitoringService.restore(path, _factory)
        del interrupted
        for cycle in cycles[_CHECKPOINT_AT:]:
            resumed.ingest_cycle(cycle)

        # Counters continued from the checkpoint, they did not reset:
        # the resumed run's deterministic totals (counter values and
        # histogram observation counts) equal the uninterrupted run's.
        assert resumed.metrics.totals() == reference.metrics.totals()
        weeks = resumed.metrics.counter("fdeta_weeks_completed_total")
        assert weeks.value() == _WEEKS

    def test_resumed_tracer_keeps_appending(self, cycles, tmp_path):
        service = _make_service()
        path = tmp_path / "service.ckpt"
        for cycle in cycles[:_CHECKPOINT_AT]:
            service.ingest_cycle(cycle)
        service.checkpoint(path)
        resumed = TheftMonitoringService.restore(path, _factory)
        spans_at_restore = len(list(resumed.tracer.spans()))
        for cycle in cycles[_CHECKPOINT_AT:]:
            resumed.ingest_cycle(cycle)
        assert len(list(resumed.tracer.spans())) > spans_at_restore
        weeks = [s for s in resumed.tracer.spans() if s.name == "week"]
        assert [span.fields["week"] for span in weeks] == list(range(_WEEKS))
