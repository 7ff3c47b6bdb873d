"""Chaos-style integration tests (acceptance criterion).

Replay weeks of readings through the full resilient pipeline over a
lossy, fault-injecting channel and assert the service degrades
gracefully: no exceptions, silenced meters quarantined by the circuit
breaker, the rest of the population still scored, and an injected
Class-1B attack still detected in degraded mode.
"""

import numpy as np
import pytest

from repro.core.framework import AnomalyNature
from repro.core.kld import KLDDetector
from repro.core.online import TheftMonitoringService
from repro.metering.channel import LossyChannel
from repro.resilience import FaultInjector, FaultyChannel, ResilienceConfig
from repro.resilience.circuit import BreakerState
from repro.timeseries.seasonal import SLOTS_PER_WEEK

N_WEEKS = 20
ATTACK_WEEK = 16
SILENCE_WEEK = 12


def _factory():
    # 99th-percentile threshold: with only ~10 training weeks the 95th
    # percentile is brittle and drowns the replay in false positives.
    return KLDDetector(significance=0.01)


def _service(ids, min_coverage=0.5):
    return TheftMonitoringService(
        detector_factory=_factory,
        min_training_weeks=10,
        retrain_every_weeks=4,
        # failure_threshold 16: high enough that the victim's 6-slot
        # burst gaps (even extended by adjacent random drops) never trip
        # its breaker, low enough that a silenced meter trips within
        # half an hour of wall-clock polling.
        resilience=ResilienceConfig(
            min_coverage=min_coverage, failure_threshold=16
        ),
        population=ids,
    )


def _reading_at(series, cid, t, victim):
    value = float(series[cid][t])
    if cid == victim and t // SLOTS_PER_WEEK == ATTACK_WEEK:
        # Class 1B: the attacker inflates the victim's reported usage
        # so the victim pays part of the attacker's bill.
        value *= 4.0
    return value


@pytest.fixture(scope="module")
def chaos_run(paper_dataset):
    """One full 20-week chaos replay; shared across the assertions."""
    ids = paper_dataset.consumers()[:6]
    series = {cid: paper_dataset.series(cid) for cid in ids}
    victim, dead = ids[0], ids[5]
    service = _service(ids)
    channel = FaultyChannel(
        channel=LossyChannel(
            drop_rate=0.05, outage_rate=0.001, outage_mean_cycles=8.0
        ),
        faults=FaultInjector(corrupt_rate=0.01),
    )
    rng = np.random.default_rng(42)
    for t in range(N_WEEKS * SLOTS_PER_WEEK):
        week, slot = divmod(t, SLOTS_PER_WEEK)
        if week == SILENCE_WEEK and slot == 0:
            channel.silence(dead)  # the meter dies outright
        readings = {cid: _reading_at(series, cid, t, victim) for cid in ids}
        if week == ATTACK_WEEK and slot % 48 < 6:
            # Deterministic burst gaps on the victim's link during the
            # attack week: long enough (6 > max_repair_gap) to survive
            # interpolation and force degraded-mode scoring, short
            # enough (6 < failure_threshold) not to trip its breaker.
            del readings[victim]
        service.ingest_cycle(channel.transmit(readings, rng))
    return {
        "service": service,
        "ids": ids,
        "victim": victim,
        "dead": dead,
        "series": series,
    }


class TestChaosReplay:
    def test_runs_to_completion(self, chaos_run):
        assert chaos_run["service"].weeks_completed == N_WEEKS
        assert len(chaos_run["service"].reports) == N_WEEKS

    def test_breaker_trips_for_silenced_meter(self, chaos_run):
        service, dead = chaos_run["service"], chaos_run["dead"]
        assert service.breaker_state(dead) is not BreakerState.CLOSED
        assert dead in service.quarantined_consumers()
        # Quarantined from the silencing week's boundary onward.
        for report in service.reports[SILENCE_WEEK:]:
            assert dead in report.quarantined

    def test_remaining_population_still_scored(self, chaos_run):
        service, ids, dead = (
            chaos_run["service"],
            chaos_run["ids"],
            chaos_run["dead"],
        )
        final = service.reports[-1]
        survivors = [cid for cid in ids if cid != dead]
        scored = set(final.coverage)
        assert scored.issuperset(survivors)
        assert dead not in scored

    def test_attack_detected_in_degraded_mode(self, chaos_run):
        service, victim = chaos_run["service"], chaos_run["victim"]
        report = service.reports[ATTACK_WEEK]
        victim_alerts = [
            a for a in report.alerts if a.consumer_id == victim
        ]
        assert victim_alerts, "Class-1B attack went undetected"
        alert = victim_alerts[0]
        assert alert.nature is AnomalyNature.SUSPECTED_VICTIM
        assert alert.coverage < 1.0, "expected degraded-mode scoring"
        assert alert.coverage >= 0.8
        assert alert.score > alert.threshold
        assert victim in service.suspected_victims()

    def test_dead_meter_never_alerted_after_silencing(self, chaos_run):
        service, dead = chaos_run["service"], chaos_run["dead"]
        for report in service.reports[SILENCE_WEEK:]:
            assert all(a.consumer_id != dead for a in report.alerts)


class TestGracefulDegradation:
    def test_lossy_alerts_close_to_clean_alerts(self, chaos_run):
        """Loss shouldn't change who the service accuses.

        A clean, loss-free replay of the same population and attack is
        the reference; the lossy run may add or lose a few marginal
        alerts but the victim must be flagged in both and the number of
        accused consumers must stay close.
        """
        ids, series, victim = (
            chaos_run["ids"],
            chaos_run["series"],
            chaos_run["victim"],
        )
        clean = TheftMonitoringService(
            detector_factory=_factory,
            min_training_weeks=10,
            retrain_every_weeks=4,
        )
        for t in range(N_WEEKS * SLOTS_PER_WEEK):
            clean.ingest_cycle(
                {cid: _reading_at(series, cid, t, victim) for cid in ids}
            )
        assert victim in clean.suspected_victims()
        lossy = chaos_run["service"]
        clean_accused = set(clean.suspected_victims()) | set(
            clean.suspected_attackers()
        )
        lossy_accused = set(lossy.suspected_victims()) | set(
            lossy.suspected_attackers()
        )
        assert victim in lossy_accused
        assert len(clean_accused ^ lossy_accused) <= 2


class TestBurstOutages:
    def test_heavy_outages_do_not_crash(self, paper_dataset):
        """Stochastic burst outages alone never raise."""
        ids = paper_dataset.consumers()[:4]
        series = {cid: paper_dataset.series(cid) for cid in ids}
        service = _service(ids, min_coverage=0.6)
        channel = LossyChannel(
            drop_rate=0.05, outage_rate=0.005, outage_mean_cycles=16.0
        )
        rng = np.random.default_rng(3)
        for t in range(12 * SLOTS_PER_WEEK):
            readings = {cid: float(series[cid][t]) for cid in ids}
            service.ingest_cycle(channel.transmit(readings, rng))
        assert service.weeks_completed == 12
        # Every completed week produced a report with coverage records
        # for at least one consumer.
        for report in service.reports:
            assert report.coverage or report.quarantined
