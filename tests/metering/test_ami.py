"""Unit tests for the AMI network and the root balance check over it."""

import pytest

from repro.errors import MeteringError
from repro.grid.balance import BalanceAuditor
from repro.grid.builder import build_figure2_topology
from repro.metering.ami import AMINetwork
from repro.metering.errors_model import MeasurementErrorModel


@pytest.fixture
def ami():
    topo = build_figure2_topology()
    return AMINetwork.deploy(topo, error_model=MeasurementErrorModel.exact())


def demands(topo, value=2.0):
    return {c: value for c in topo.consumers()}


class TestAMINetwork:
    def test_deploy_covers_every_consumer(self, ami):
        assert set(ami.meters) == set(ami.topology.consumers())

    def test_collect_honest(self, ami, rng):
        readings = ami.collect(demands(ami.topology), rng)
        assert all(v == 2.0 for v in readings.values())

    def test_collect_with_compromise(self, ami, rng):
        ami.meter("C1").compromise(lambda m: m * 0.25)
        readings = ami.collect(demands(ami.topology), rng)
        assert readings["C1"] == pytest.approx(0.5)
        assert readings["C2"] == 2.0

    def test_collect_missing_demand(self, ami, rng):
        with pytest.raises(MeteringError):
            ami.collect({"C1": 1.0}, rng)

    def test_unknown_meter(self, ami):
        with pytest.raises(MeteringError):
            ami.meter("ghost")

    def test_snapshot_carries_losses(self, ami, rng):
        snap = ami.snapshot(demands(ami.topology), rng, losses={"L1": 0.5})
        assert snap.losses["L1"] == 0.5


class TestRootBalance:
    """The root balance check (eqs 4-6) over one AMI polling period."""

    def audit_root(self, ami, snapshot):
        auditor = BalanceAuditor(
            ami.topology, instrumented=(ami.topology.root_id,)
        )
        return auditor.audit(snapshot).checks[ami.topology.root_id]

    def test_residuals_zero_when_honest(self, ami, rng):
        for _ in range(4):
            snap = ami.snapshot(demands(ami.topology), rng)
            check = self.audit_root(ami, snap)
            assert check.measured - check.reported_sum == pytest.approx(0.0)
            assert not check.w_event

    def test_residuals_positive_under_theft(self, ami, rng):
        ami.meter("C3").compromise(lambda m: 0.0)
        snap = ami.snapshot(demands(ami.topology), rng)
        check = self.audit_root(ami, snap)
        # C3's 2 kW are unaccounted.
        assert check.measured - check.reported_sum == pytest.approx(2.0)
        assert check.w_event

    def test_residuals_account_for_losses(self, ami, rng):
        snap = ami.snapshot(demands(ami.topology), rng, losses={"L1": 0.7})
        check = self.audit_root(ami, snap)
        assert check.measured - check.reported_sum == pytest.approx(0.0)
        assert check.measured == pytest.approx(5 * 2.0 + 0.7)
