"""End-to-end integration: grid + AMI + data + attacks + F-DETA pipeline.

Simulates a small neighbourhood for several weeks, launches a balanced
Class-1B theft, and verifies that (a) the balance check is blind to it and
(b) the F-DETA KLD pipeline flags the victimised neighbour.
"""

import numpy as np
import pytest

from repro.core.framework import AnomalyNature, FDetaFramework
from repro.core.kld import KLDDetector
from repro.data.consumers import ConsumerProfile, ConsumerType
from repro.data.synthetic import generate_consumer_series
from repro.grid.balance import BalanceAuditor
from repro.grid.topology import RadialTopology
from repro.metering.ami import AMINetwork
from repro.metering.errors_model import MeasurementErrorModel
from repro.timeseries.seasonal import SLOTS_PER_WEEK


N_WEEKS_TRAIN = 12
CONSUMERS = ("m1", "m2", "m3")  # m1 will be Mallory; m2 her victim


@pytest.fixture(scope="module")
def neighbourhood():
    """Topology + AMI + per-consumer ground-truth series."""
    topo = RadialTopology(root_id="substation")
    topo.add_internal("feeder", "substation")
    for cid in CONSUMERS:
        topo.add_consumer(cid, "feeder")
    topo.validate()
    ami = AMINetwork.deploy(topo, error_model=MeasurementErrorModel.exact())
    rng = np.random.default_rng(99)
    series = {}
    for i, cid in enumerate(CONSUMERS):
        profile = ConsumerProfile(
            consumer_id=cid,
            kind=ConsumerType.RESIDENTIAL,
            scale_kw=1.0 + 0.5 * i,
            vacation_rate=0.0,
            party_rate=0.0,
        )
        series[cid] = generate_consumer_series(
            profile, N_WEEKS_TRAIN + 1, np.random.default_rng(100 + i)
        )
    return topo, ami, series


class TestHonestOperation:
    def test_balance_holds_every_period(self, neighbourhood):
        topo, ami, series = neighbourhood
        auditor = BalanceAuditor(topo, instrumented=(topo.root_id,))
        rng = np.random.default_rng(1)
        residuals = []
        for t in range(100):
            demands = {cid: float(series[cid][t]) for cid in CONSUMERS}
            report = auditor.audit(ami.snapshot(demands, rng))
            root = report.checks[topo.root_id]
            residuals.append(root.measured - root.reported_sum)
        assert np.allclose(residuals, 0.0, atol=1e-9)


class TestBalancedTheftEndToEnd:
    def _run_attack_week(self, neighbourhood):
        """Collect one attacked week of readings via the AMI."""
        topo, ami, series = neighbourhood
        rng = np.random.default_rng(2)
        steal_kw = 1.0
        attacked_reported = {cid: [] for cid in CONSUMERS}
        start = N_WEEKS_TRAIN * SLOTS_PER_WEEK
        # Mallory (m1) consumes +1 kW; her meter is compromised to report
        # her typical value; m2's meter over-reports by the same amount.
        m1 = ami.meter("m1")
        m2 = ami.meter("m2")
        m1.compromise(lambda measured: max(measured - steal_kw, 0.0))
        m2.compromise(lambda measured: measured + steal_kw)
        try:
            for t in range(start, start + SLOTS_PER_WEEK):
                demands = {cid: float(series[cid][t]) for cid in CONSUMERS}
                demands["m1"] += steal_kw  # Mallory's raised consumption
                snap = ami.snapshot(demands, rng)
                for cid in CONSUMERS:
                    attacked_reported[cid].append(snap.reported[cid])
            # The final snapshot stands in for any period's balance audit.
            return snap, {
                cid: np.array(values)
                for cid, values in attacked_reported.items()
            }
        finally:
            m1.restore()
            m2.restore()

    def test_balance_check_blind_to_balanced_theft(self, neighbourhood):
        topo, _, _ = neighbourhood
        snap, _ = self._run_attack_week(neighbourhood)
        auditor = BalanceAuditor(topo, tolerance=1e-6)
        report = auditor.audit(snap)
        assert not report.any_failure

    def test_fdeta_flags_the_victim(self, neighbourhood):
        topo, _, series = neighbourhood
        _, attacked = self._run_attack_week(neighbourhood)
        framework = FDetaFramework(
            detector_factory=lambda: KLDDetector(significance=0.05),
            triage_quantiles=(0.2, 0.8),
        )
        framework.train(
            {
                cid: series[cid][: N_WEEKS_TRAIN * SLOTS_PER_WEEK].reshape(
                    N_WEEKS_TRAIN, SLOTS_PER_WEEK
                )
                for cid in CONSUMERS
            }
        )
        victim = framework.assess_week("m2", attacked["m2"])
        assert victim.result.flagged
        assert victim.nature is AnomalyNature.SUSPECTED_VICTIM

    def test_fdeta_spares_the_uninvolved(self, neighbourhood):
        topo, _, series = neighbourhood
        _, attacked = self._run_attack_week(neighbourhood)
        framework = FDetaFramework(
            detector_factory=lambda: KLDDetector(significance=0.05)
        )
        framework.train(
            {
                cid: series[cid][: N_WEEKS_TRAIN * SLOTS_PER_WEEK].reshape(
                    N_WEEKS_TRAIN, SLOTS_PER_WEEK
                )
                for cid in CONSUMERS
            }
        )
        bystander = framework.assess_week("m3", attacked["m3"])
        assert not bystander.result.flagged
