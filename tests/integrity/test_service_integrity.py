"""Service-level cold-start poisoning: seed pipeline vs integrity mode.

Same population, same readings, three services:

* the **seed pipeline** (no integrity) trains its first model on a
  corpus that silently includes the attacker's ramp — and then largely
  fails to flag the attacker's floor-level theft;
* the **integrity service** convicts the ramp tail before it trains,
  quarantines the weeks as ``POISON_SUSPECT`` evidence, promotes a
  model whose recorded lineage is exactly the clean prefix, and flags
  every theft week;
* a service with **deliberately blinded sentinels** shows the canary
  gate as the independent second line: every poisoned candidate is
  rejected and nothing is ever promoted.
"""

import numpy as np
import pytest

from repro.core.kld import KLDDetector
from repro.core.online import TheftMonitoringService
from repro.integrity import IntegrityConfig
from repro.quarantine.firewall import ReadingFirewall
from repro.quarantine.store import QuarantineReason
from repro.resilience import ResilienceConfig

from tests.integrity.conftest import (
    EXPECTED_SUSPECTS,
    FLOOR_WEEKS,
    TOTAL_WEEKS,
    TRAIN_AT,
    build_population,
    feed_week,
)

SEED = 11
ATTACKER = "c00"


def _run(service, series):
    alerts = []
    for week in range(TOTAL_WEEKS):
        report = feed_week(service, series, week)
        if report is not None:
            alerts.extend(
                (alert.week_index, alert.consumer_id)
                for alert in report.alerts
            )
    return alerts


def _attacker_weeks(alerts):
    return sorted(week for week, cid in alerts if cid == ATTACKER)


@pytest.fixture(scope="module")
def population():
    return build_population(SEED)


@pytest.fixture(scope="module")
def seed_alerts(population):
    service = TheftMonitoringService(
        lambda: KLDDetector(significance=0.05),
        min_training_weeks=TRAIN_AT,
        retrain_every_weeks=8,
    )
    return _run(service, population)


@pytest.fixture(scope="module")
def integrity_run(population):
    firewall = ReadingFirewall()
    service = TheftMonitoringService(
        lambda: KLDDetector(significance=0.05),
        min_training_weeks=TRAIN_AT,
        retrain_every_weeks=8,
        integrity=IntegrityConfig(sigma_floor_frac=0.03),
        resilience=ResilienceConfig(),
        firewall=firewall,
    )
    alerts = _run(service, population)
    return service, alerts


class TestSeedPipelineIsPoisoned:
    def test_ramp_poisons_the_baseline_and_theft_goes_unflagged(
        self, seed_alerts
    ):
        # The ramp reached its floor before the first training, so the
        # theft level is in-distribution: the seed pipeline misses
        # nearly every pure-theft week.
        flagged = _attacker_weeks(seed_alerts)
        assert len(flagged) <= 2, (
            "expected the poisoned seed pipeline to miss the attacker, "
            f"but it flagged weeks {flagged}"
        )


class TestIntegrityDefense:
    def test_attacker_flagged_every_post_training_week(self, integrity_run):
        _, alerts = integrity_run
        assert _attacker_weeks(alerts) == FLOOR_WEEKS

    def test_ramp_tail_recorded_as_suspect_weeks(self, integrity_run):
        service, _ = integrity_run
        assert sorted(service._suspect_weeks[ATTACKER]) == EXPECTED_SUSPECTS
        counter = service.metrics.counter(
            "fdeta_integrity_suspect_weeks_total", ""
        )
        assert counter.value() == len(EXPECTED_SUSPECTS)

    def test_suspect_weeks_land_in_quarantine_evidence(self, integrity_run):
        service, _ = integrity_run
        records = [
            record
            for record in service.firewall.store.records
            if record.consumer_id == ATTACKER
            and record.reason is QuarantineReason.POISON_SUSPECT
        ]
        assert sorted(r.declared_slot for r in records) == EXPECTED_SUSPECTS
        assert all(r.detail for r in records)

    def test_promoted_lineage_is_the_clean_prefix(self, integrity_run):
        service, _ = integrity_run
        first = service.model_registry.version(1)
        assert first.ever_promoted
        assert first.lineage[ATTACKER] == tuple(
            w for w in range(TRAIN_AT) if w not in EXPECTED_SUSPECTS
        )
        # The retraining at week 24 promoted a successor.
        assert service.model_version() == 2

    def test_canary_reference_is_anchored_on_the_first_training(
        self, integrity_run
    ):
        service, _ = integrity_run
        anchor = service._canary_reference[ATTACKER]
        matrix = service.store.week_matrix(ATTACKER)
        assert np.array_equal(anchor, matrix[0])

    def test_promotion_metrics_and_events(self, integrity_run):
        service, _ = integrity_run
        assert (
            service.metrics.counter("fdeta_model_promotions_total", "").value()
            == 2
        )
        assert (
            service.metrics.counter(
                "fdeta_integrity_canary_runs_total", "", labels=("outcome",)
            ).value(outcome="pass")
            == 2
        )
        assert (
            service.metrics.gauge("fdeta_model_active_version", "").value()
            == 2.0
        )
        kinds = [event.kind for event in service.model_registry.events]
        assert kinds.count("promoted") == 2
        assert "rejected" not in kinds


class TestCanaryGateAsSecondLine:
    def test_blinded_sentinels_still_never_promote_a_poisoned_model(
        self, population
    ):
        # Sentinels disabled outright: the candidate trains on the full
        # poisoned corpus.  The canary gate must then catch what the
        # sentinel missed — a model that no longer flags a 0.7-scaling
        # of the anchored honest week — and refuse every promotion.
        service = TheftMonitoringService(
            lambda: KLDDetector(significance=0.05),
            min_training_weeks=TRAIN_AT,
            retrain_every_weeks=8,
            integrity=IntegrityConfig(
                cusum_h=1e9,
                psi_threshold=1e9,
                canary_factors=(0.0, 0.5, 0.7, 1.5),
                canary_floor=0.95,
            ),
        )
        _run(service, population)
        assert not service.is_trained
        assert service.model_version() is None
        versions = service.model_registry.versions()
        assert versions, "candidates must still have been submitted"
        assert all(mv.status == "rejected" for mv in versions)
        assert all(not mv.ever_promoted for mv in versions)
        assert all(
            mv.canary is not None and mv.canary.rate < 0.95
            for mv in versions
        )
        fails = service.metrics.counter(
            "fdeta_integrity_canary_runs_total", "", labels=("outcome",)
        ).value(outcome="fail")
        assert fails == len(versions)
