"""Reading-integrity firewall: one distinct reason code per class."""

import math

import numpy as np
import pytest

from repro.core.kld import KLDDetector
from repro.core.online import TheftMonitoringService
from repro.errors import ConfigurationError
from repro.observability.events import EventLogger
from repro.observability.metrics import MetricsRegistry
from repro.quarantine import (
    QUARANTINE_METRIC,
    FirewallPolicy,
    MeterReading,
    QuarantineReason,
    ReadingFirewall,
)
from repro.resilience.config import ResilienceConfig
from repro.timeseries.seasonal import SLOTS_PER_WEEK


class TestPolicy:
    def test_ceiling_must_be_positive_finite(self):
        with pytest.raises(ConfigurationError):
            FirewallPolicy(max_reading_kwh=0.0)
        with pytest.raises(ConfigurationError):
            FirewallPolicy(max_reading_kwh=float("inf"))


class TestReasonCodes:
    """Each malformed-reading class lands under its own reason code."""

    def _screen_one(self, raw, cycle=10, policy=None):
        firewall = ReadingFirewall(policy or FirewallPolicy())
        accepted = firewall.screen({"c1": raw}, cycle=cycle)
        return firewall, accepted

    def test_nan_is_non_finite(self):
        firewall, accepted = self._screen_one(float("nan"))
        assert accepted == {}
        (record,) = firewall.store.records
        assert record.reason is QuarantineReason.NON_FINITE

    def test_inf_is_non_finite(self):
        firewall, accepted = self._screen_one(float("inf"))
        assert accepted == {}
        assert firewall.store.counts_by_reason() == {"non_finite": 1}

    def test_unparseable_is_non_finite(self):
        firewall, accepted = self._screen_one("garbage")
        assert accepted == {}
        (record,) = firewall.store.records
        assert record.reason is QuarantineReason.NON_FINITE
        assert math.isnan(record.value)

    def test_negative(self):
        firewall, accepted = self._screen_one(-0.5)
        assert accepted == {}
        assert firewall.store.counts_by_reason() == {"negative": 1}

    def test_out_of_range(self):
        firewall, accepted = self._screen_one(
            7.0, policy=FirewallPolicy(max_reading_kwh=5.0)
        )
        assert accepted == {}
        assert firewall.store.counts_by_reason() == {"out_of_range": 1}

    def test_duplicate_slot(self):
        firewall, accepted = self._screen_one(
            MeterReading(1.0, slot=4), cycle=10
        )
        assert accepted == {}
        assert firewall.store.counts_by_reason() == {"duplicate": 1}

    def test_clock_skew(self):
        firewall, accepted = self._screen_one(
            MeterReading(1.0, slot=15), cycle=10
        )
        assert accepted == {}
        assert firewall.store.counts_by_reason() == {"clock_skew": 1}

    def test_dst_fold(self):
        firewall, accepted = self._screen_one(
            MeterReading(1.0, slot=10, fold=True), cycle=10
        )
        assert accepted == {}
        assert firewall.store.counts_by_reason() == {"dst_fold": 1}

    def test_clean_values_pass(self):
        firewall, accepted = self._screen_one(2.5)
        assert accepted == {"c1": 2.5}
        assert len(firewall.store) == 0

    def test_stamped_current_slot_passes(self):
        firewall, accepted = self._screen_one(
            MeterReading(2.5, slot=10), cycle=10
        )
        assert accepted == {"c1": 2.5}

    def test_value_checks_precede_slot_checks(self):
        # A negative reading with a stale slot is filed as negative:
        # the first failing check in severity order names the reason.
        firewall, _ = self._screen_one(MeterReading(-1.0, slot=3), cycle=10)
        assert firewall.store.counts_by_reason() == {"negative": 1}


class TestInstrumentation:
    def test_metric_labelled_by_reason(self):
        registry = MetricsRegistry()
        firewall = ReadingFirewall(FirewallPolicy(max_reading_kwh=5.0))
        firewall.screen(
            {
                "a": float("nan"),
                "b": -1.0,
                "c": 9.0,
                "d": MeterReading(1.0, slot=1),
                "e": MeterReading(1.0, slot=99),
                "f": MeterReading(1.0, slot=10, fold=True),
                "g": 2.0,
            },
            cycle=10,
            metrics=registry,
        )
        counter = registry.counter(QUARANTINE_METRIC, labels=("reason",))
        for reason in QuarantineReason:
            if reason in (
                QuarantineReason.TOO_LATE,
                QuarantineReason.POISON_SUSPECT,
            ):
                # too_late is routed by the event-time ingestor and
                # poison_suspect by the drift sentinel, not by the
                # per-cycle screen (a screened cycle is on time and a
                # single cycle carries no drift evidence).
                assert counter.value(reason=reason.value) == 0.0
                continue
            assert counter.value(reason=reason.value) == 1.0

    def test_events_logged(self, tmp_path):
        path = tmp_path / "events.jsonl"
        events = EventLogger(path=str(path))
        firewall = ReadingFirewall()
        firewall.screen({"a": -1.0}, cycle=0, events=events)
        events.close()
        text = path.read_text()
        assert "reading_quarantined" in text
        assert "negative" in text


class TestServiceIntegration:
    def _service(self):
        return TheftMonitoringService(
            detector_factory=lambda: KLDDetector(significance=0.05),
            min_training_weeks=2,
            retrain_every_weeks=4,
            resilience=ResilienceConfig(),
            population=("c1", "c2"),
            firewall=ReadingFirewall(FirewallPolicy(max_reading_kwh=50.0)),
        )

    def test_quarantined_reading_becomes_gap(self):
        service = self._service()
        service.ingest_cycle({"c1": float("nan"), "c2": 1.0})
        assert service.store.gap_count("c1") == 1
        assert service.store.gap_count("c2") == 0
        assert len(service.firewall.store) == 1
        counter = service.metrics.counter(
            QUARANTINE_METRIC, labels=("reason",)
        )
        assert counter.value(reason="non_finite") == 1.0

    def test_no_quarantined_value_reaches_detector_fit_or_score(self):
        """The acceptance criterion: detector state never sees rejects."""
        rng = np.random.default_rng(5)
        poison = 1e9  # far beyond the 50 kWh policy ceiling
        service = self._service()
        # 7 weeks: gaps left by quarantined readings are repaired at
        # each week boundary, so by the week-6 retraining c1 has enough
        # clean (repaired) history to get its own detector.
        for t in range(7 * SLOTS_PER_WEEK):
            readings = {
                "c1": float(rng.gamma(2.0, 0.5)),
                "c2": float(rng.gamma(2.0, 0.5)),
            }
            if t % 50 == 0:
                readings["c1"] = poison
            service.ingest_cycle(readings)
        assert service.is_trained
        # The poison value is in quarantine, not in the series ...
        assert all(
            r.value == poison
            for r in service.firewall.store.for_consumer("c1")
        )
        series = service.store.series("c1")
        assert not np.any(series[np.isfinite(series)] > 50.0)
        # ... and the fitted detector's histogram never saw it.
        detector = service._framework.detector_for("c1")
        assert detector.histogram.edges[-1] < poison

    def test_firewall_rides_checkpoints(self, tmp_path):
        service = self._service()
        service.ingest_cycle({"c1": -1.0, "c2": 1.0})
        ckpt = tmp_path / "ckpt.bin"
        service.checkpoint(ckpt)
        restored = TheftMonitoringService.restore(
            ckpt, lambda: KLDDetector(significance=0.05)
        )
        assert restored.firewall is not None
        assert restored.firewall.store.counts_by_reason() == {"negative": 1}
        assert restored.firewall.screened_cycles == 1
