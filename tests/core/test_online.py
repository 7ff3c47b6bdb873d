"""Tests for the online theft-monitoring service."""

import numpy as np
import pytest

from repro.core.framework import AnomalyNature
from repro.core.kld import KLDDetector
from repro.core.online import TheftMonitoringService, _abbreviate_ids
from repro.errors import ConfigurationError, DataError
from repro.resilience import ResilienceConfig
from repro.resilience.circuit import BreakerState
from repro.timeseries.seasonal import SLOTS_PER_WEEK


def _make_service(**kwargs):
    defaults = dict(
        detector_factory=lambda: KLDDetector(significance=0.05),
        min_training_weeks=6,
        retrain_every_weeks=4,
    )
    defaults.update(kwargs)
    return TheftMonitoringService(**defaults)


def _feed_week(service, weeks, week_index, transform=None):
    """Feed one week of per-consumer readings into the service."""
    report = None
    for slot in range(SLOTS_PER_WEEK):
        cycle = {}
        for cid, series in weeks.items():
            value = float(series[week_index * SLOTS_PER_WEEK + slot])
            if transform is not None:
                value = transform(cid, value)
            cycle[cid] = value
        report = service.ingest_cycle(cycle)
    return report


@pytest.fixture(scope="module")
def consumer_series(paper_dataset):
    ids = paper_dataset.consumers()[:3]
    return {cid: paper_dataset.series(cid) for cid in ids}


class TestLifecycle:
    def test_untrained_until_min_weeks(self, consumer_series):
        service = _make_service()
        for week in range(5):
            _feed_week(service, consumer_series, week)
        assert not service.is_trained
        _feed_week(service, consumer_series, 5)
        assert service.is_trained
        assert service.weeks_completed == 6

    def test_mid_week_cycles_return_none(self, consumer_series):
        service = _make_service()
        cycle = {cid: 1.0 for cid in consumer_series}
        assert service.ingest_cycle(cycle) is None

    def test_reports_accumulate(self, consumer_series):
        service = _make_service()
        for week in range(8):
            _feed_week(service, consumer_series, week)
        assert len(service.reports) == 8

    def test_rejects_empty_cycle(self):
        service = _make_service()
        with pytest.raises(DataError):
            service.ingest_cycle({})

    def test_rejects_bad_configuration(self):
        with pytest.raises(ConfigurationError):
            _make_service(min_training_weeks=1)
        with pytest.raises(ConfigurationError):
            _make_service(retrain_every_weeks=0)

    def test_unknown_consumer_error_truncates_large_populations(self):
        """A thousand-consumer intrusion must not produce a megabyte error."""
        service = _make_service()
        service.ingest_cycle({"c0000": 1.0})
        intruders = {f"c{i:04d}": 1.0 for i in range(600)}
        # 599 unknown consumers: only the first 10 are named.
        with pytest.raises(DataError, match=r"\(\+589 more\)") as excinfo:
            service.ingest_cycle(intruders)
        message = str(excinfo.value)
        assert message.startswith("polling cycle carried unknown consumers")
        assert len(message) < 500
        assert "c0010" in message  # first ten unknown ids spelled out
        assert "c0011" not in message


class TestAbbreviateIds:
    def test_short_lists_verbatim(self):
        assert _abbreviate_ids(["b", "a"]) == "['a', 'b']"

    def test_exactly_at_limit_not_truncated(self):
        ids = [f"c{i}" for i in range(10)]
        assert "more" not in _abbreviate_ids(ids)

    def test_truncates_past_limit(self):
        ids = [f"c{i:02d}" for i in range(25)]
        rendered = _abbreviate_ids(ids)
        assert rendered.endswith("(+15 more)")
        assert "'c09'" in rendered and "c10" not in rendered

    def test_deterministic_ordering(self):
        assert _abbreviate_ids({"z", "a", "m"}) == "['a', 'm', 'z']"


class TestAlertAndReportValueObjects:
    def test_quiet_report(self):
        from repro.core.online import MonitoringReport

        assert MonitoringReport(week_index=0).quiet
        assert not MonitoringReport(
            week_index=0, balance_failures=("N1",)
        ).quiet

    def test_severity_in_threshold_units(self):
        from repro.core.framework import AnomalyNature
        from repro.core.online import TheftAlert

        alert = TheftAlert(
            week_index=1,
            consumer_id="c",
            nature=AnomalyNature.SUSPECTED_VICTIM,
            score=0.3,
            threshold=0.1,
            balance_check_failed=False,
        )
        assert alert.severity == pytest.approx(3.0)

    def test_severity_with_zero_threshold(self):
        from repro.core.framework import AnomalyNature
        from repro.core.online import TheftAlert

        alert = TheftAlert(
            week_index=1,
            consumer_id="c",
            nature=AnomalyNature.SUSPECTED_ATTACKER,
            score=5.0,
            threshold=0.0,
            balance_check_failed=True,
        )
        assert alert.severity == 5.0


class TestDetectionInOperation:
    def test_quiet_on_normal_weeks(self, consumer_series):
        service = _make_service(min_training_weeks=8)
        alerts = 0
        for week in range(12):
            report = _feed_week(service, consumer_series, week)
            if report is not None:
                alerts += len(report.alerts)
        # Natural anomalies may fire occasionally; sustained quiet
        # operation is the norm.
        assert alerts <= 6

    def test_victim_alert_on_over_report(self, consumer_series):
        service = _make_service(min_training_weeks=8)
        ids = list(consumer_series)
        victim = ids[0]
        for week in range(10):
            _feed_week(service, consumer_series, week)
        report = _feed_week(
            service,
            consumer_series,
            10,
            transform=lambda cid, v: v * 4.0 if cid == victim else v,
        )
        assert report is not None
        flagged = {alert.consumer_id for alert in report.alerts}
        assert victim in flagged
        assert victim in service.suspected_victims()

    def test_attacker_alert_on_under_report(self, consumer_series):
        service = _make_service(min_training_weeks=8)
        ids = list(consumer_series)
        mallory = ids[1]
        for week in range(10):
            _feed_week(service, consumer_series, week)
        report = _feed_week(
            service,
            consumer_series,
            10,
            transform=lambda cid, v: v * 0.05 if cid == mallory else v,
        )
        assert report is not None
        assert mallory in service.suspected_attackers()
        alert = next(
            alert
            for report in service.reports
            for alert in report.alerts
            if alert.consumer_id == mallory
        )
        assert alert.nature is AnomalyNature.SUSPECTED_ATTACKER
        assert alert.severity > 1.0

    def test_attacked_weeks_quarantined_from_retraining(self, consumer_series):
        """An ongoing attack must not poison its own detector: the
        flagged week is excluded from the retraining data."""
        service = _make_service(min_training_weeks=8, retrain_every_weeks=1)
        ids = list(consumer_series)
        victim = ids[0]
        for week in range(10):
            _feed_week(service, consumer_series, week)
        _feed_week(
            service,
            consumer_series,
            10,
            transform=lambda cid, v: v * 4.0 if cid == victim else v,
        )
        quarantined = service._quarantined_weeks.get(victim, set())
        assert 10 in quarantined
        # The retrained detector still flags a repeat of the attack.
        report = _feed_week(
            service,
            consumer_series,
            11,
            transform=lambda cid, v: v * 4.0 if cid == victim else v,
        )
        assert report is not None
        assert victim in {a.consumer_id for a in report.alerts}


def _make_tolerant(ids, **config):
    return TheftMonitoringService(
        detector_factory=lambda: KLDDetector(significance=0.05),
        min_training_weeks=6,
        retrain_every_weeks=4,
        resilience=ResilienceConfig(**config),
        population=ids,
    )


class TestGapTolerantMode:
    def test_accepts_partial_cycles(self, consumer_series):
        ids = sorted(consumer_series)
        service = _make_tolerant(ids)
        absent = ids[0]
        for slot in range(SLOTS_PER_WEEK):
            cycle = {
                cid: float(consumer_series[cid][slot]) for cid in ids
            }
            if slot % 90 == 7:
                del cycle[absent]
            service.ingest_cycle(cycle)
        assert service.weeks_completed == 1
        # Gap markers kept the series slot-aligned.
        for cid in ids:
            assert service.store.length(cid) == SLOTS_PER_WEEK

    def test_accepts_empty_cycle(self, consumer_series):
        ids = sorted(consumer_series)
        service = _make_tolerant(ids)
        service.ingest_cycle({})
        for cid in ids:
            assert int(np.isnan(service.store.series(cid)).sum()) == 1

    def test_rejects_unknown_consumers(self, consumer_series):
        ids = sorted(consumer_series)
        service = _make_tolerant(ids)
        with pytest.raises(DataError, match="unknown consumers"):
            service.ingest_cycle({"ghost": 1.0})

    def test_invalid_readings_become_gaps(self, consumer_series):
        ids = sorted(consumer_series)
        service = _make_tolerant(ids)
        bad = ids[1]
        cycle = {cid: 1.0 for cid in ids}
        for value in (float("nan"), float("inf"), -2.0):
            cycle[bad] = value
            service.ingest_cycle(cycle)
        assert int(np.isnan(service.store.series(bad)).sum()) == 3
        assert int(np.isnan(service.store.series(ids[0])).sum()) == 0

    def test_breaker_quarantines_silent_consumer(self, consumer_series):
        ids = sorted(consumer_series)
        service = _make_tolerant(ids, failure_threshold=8)
        silent = ids[2]
        for slot in range(SLOTS_PER_WEEK):
            cycle = {cid: 1.0 for cid in ids if cid != silent}
            service.ingest_cycle(cycle)
        assert service._breakers.state(silent) is BreakerState.OPEN
        assert silent in service.reports[-1].quarantined

    def test_low_coverage_week_suppressed(self, paper_dataset):
        """A consumer observed under min_coverage is never alerted."""
        ids = sorted(paper_dataset.consumers()[:3])
        series = {cid: paper_dataset.series(cid) for cid in ids}
        # High threshold so the breaker never opens: gaps then flow into
        # coverage accounting instead of quarantine.
        service = _make_tolerant(
            ids, min_coverage=0.9, failure_threshold=10_000
        )
        spotty = ids[0]
        for t in range(7 * SLOTS_PER_WEEK):
            cycle = {cid: float(series[cid][t]) for cid in ids}
            # Drop 1 slot in 2 (in runs of 8, beyond repair) from week 6.
            if t >= 6 * SLOTS_PER_WEEK and t % 16 < 8:
                del cycle[spotty]
            service.ingest_cycle(cycle)
        report = service.reports[-1]
        assert spotty in report.suppressed
        assert all(a.consumer_id != spotty for a in report.alerts)
        # The other consumers were scored normally.
        assert report.coverage[ids[1]] == 1.0


class TestWeekCloseRepair:
    """Week close repairs every scored consumer's week in one block."""

    def _service(self, ids):
        from repro.loadcontrol.config import LoadControlConfig, ShedPolicy

        return TheftMonitoringService(
            detector_factory=lambda: KLDDetector(significance=0.05),
            min_training_weeks=6,
            retrain_every_weeks=4,
            population=ids,
            loadcontrol=LoadControlConfig(shed_policy=ShedPolicy.UNIFORM),
        )

    def test_deadline_shed_consumers_keep_their_gaps(
        self, consumer_series, monkeypatch
    ):
        """A deadline that expires mid-pass sheds the rest of the roster;
        only the consumer scored before it has its repair persisted."""
        from repro.loadcontrol.deadline import Deadline

        ids = sorted(consumer_series)[:3]
        service = self._service(ids)
        week = 6
        gap_slot = week * SLOTS_PER_WEEK + 100
        for t in range((week + 1) * SLOTS_PER_WEEK - 1):
            cycle = {cid: float(consumer_series[cid][t]) for cid in ids}
            service.ingest_cycle({} if t == gap_slot else cycle)
        assert service.is_trained
        now = [0.0]
        assess = service._assess_single

        def assess_then_expire(*args):
            out = assess(*args)
            now[0] = 10.0  # the budget is gone after the first consumer
            return out

        monkeypatch.setattr(service, "_assess_single", assess_then_expire)
        t = (week + 1) * SLOTS_PER_WEEK - 1
        report = service.ingest_cycle(
            {cid: float(consumer_series[cid][t]) for cid in ids},
            deadline=Deadline(1.0, clock=lambda: now[0]),
        )
        assert report.shed == tuple(ids[1:])
        stored = {cid: service.store.series(cid)[gap_slot] for cid in ids}
        assert not np.isnan(stored[ids[0]])  # scored: repair persisted
        assert np.isnan(stored[ids[1]]) and np.isnan(stored[ids[2]])
        # Scored coverage is read after repair, shed coverage before it.
        assert report.coverage[ids[0]] == 1.0
        assert report.coverage[ids[1]] == (SLOTS_PER_WEEK - 1) / SLOTS_PER_WEEK

    def test_quarantined_consumers_are_not_repaired(self, consumer_series):
        ids = sorted(consumer_series)[:3]
        service = _make_tolerant(ids, failure_threshold=3)
        silent = ids[0]
        for t in range(SLOTS_PER_WEEK):
            cycle = {cid: float(consumer_series[cid][t]) for cid in ids}
            if SLOTS_PER_WEEK - 6 <= t < SLOTS_PER_WEEK - 2:
                del cycle[silent]  # trips the breaker, a repairable run
            service.ingest_cycle(cycle)
        assert silent in service.reports[-1].quarantined
        assert silent not in service.reports[-1].coverage
        assert int(np.isnan(service.store.series(silent)).sum()) == 4
