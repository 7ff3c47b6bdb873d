"""Fig. 1 scenario: an upstream line tap under-reports without meter
compromise, and the balance check sees the shortfall."""

import pytest

from repro.grid.balance import BalanceAuditor
from repro.grid.builder import build_figure2_topology
from repro.metering.ami import AMINetwork
from repro.metering.errors_model import MeasurementErrorModel


@pytest.fixture
def fig2_ami():
    topo = build_figure2_topology()
    ami = AMINetwork.deploy(topo, error_model=MeasurementErrorModel.exact())
    return topo, ami


class TestUpstreamTap:
    def test_tap_reduces_reported_not_actual(self, fig2_ami, rng):
        topo, ami = fig2_ami
        ami.meter("C4").install_upstream_tap(2.0)
        demands = {c: 5.0 for c in topo.consumers()}
        snap = ami.snapshot(demands, rng)
        assert snap.actual["C4"] == 5.0
        # The meter itself stays honest (Fig. 1): it reports what it sees.
        assert snap.reported["C4"] == pytest.approx(3.0)

    def test_balance_check_sees_tap(self, fig2_ami, rng):
        topo, ami = fig2_ami
        ami.meter("C4").install_upstream_tap(2.0)
        demands = {c: 5.0 for c in topo.consumers()}
        snap = ami.snapshot(demands, rng)
        auditor = BalanceAuditor(topo)
        report = auditor.audit(snap)
        assert report.w("N3")
        check = report.checks["N3"]
        assert check.measured - check.reported_sum == pytest.approx(2.0)

    def test_tap_is_class_1a_pattern(self, fig2_ami, rng):
        """Tapping realises Attack Class 1A: reported readings look
        typical while actual consumption is higher."""
        topo, ami = fig2_ami
        ami.meter("C4").install_upstream_tap(3.0)
        # The attacker raises consumption by the tapped amount: her
        # metered (reported) value stays at the typical 5 kW.
        demands = {c: 5.0 for c in topo.consumers()}
        demands["C4"] = 8.0
        snap = ami.snapshot(demands, rng)
        assert snap.reported["C4"] == pytest.approx(5.0)

    def test_tap_cannot_be_negative(self, fig2_ami):
        _, ami = fig2_ami
        from repro.errors import MeteringError

        with pytest.raises(MeteringError):
            ami.meter("C4").install_upstream_tap(-1.0)

    def test_restore_removes_tap(self, fig2_ami, rng):
        topo, ami = fig2_ami
        meter = ami.meter("C4")
        meter.install_upstream_tap(2.0)
        meter.restore()
        assert meter.report(5.0, rng) == pytest.approx(5.0)
