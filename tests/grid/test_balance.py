"""Unit tests for the balance check and Section V-B alarm rules."""

import pytest

from repro.errors import TopologyError
from repro.grid.balance import BalanceAuditor
from repro.grid.builder import build_figure2_topology
from repro.grid.snapshot import DemandSnapshot


@pytest.fixture
def fig2():
    return build_figure2_topology()


def snapshot(topo, reported_overrides=None, actual_overrides=None):
    actual = {"C1": 1.0, "C2": 2.0, "C3": 3.0, "C4": 4.0, "C5": 5.0}
    actual.update(actual_overrides or {})
    snap = DemandSnapshot(topology=topo, actual=actual)
    if reported_overrides:
        snap = snap.with_reported(reported_overrides)
    return snap


class TestBalanceCheck:
    def test_honest_readings_pass_everywhere(self, fig2):
        auditor = BalanceAuditor(fig2)
        report = auditor.audit(snapshot(fig2))
        assert not report.any_failure

    def test_under_report_fails_on_path_to_root(self, fig2):
        auditor = BalanceAuditor(fig2)
        report = auditor.audit(snapshot(fig2, reported_overrides={"C4": 1.0}))
        assert report.w("N3")
        assert report.w("N1")
        assert not report.w("N2")

    def test_w_propagates_to_all_ancestors(self, fig2):
        auditor = BalanceAuditor(fig2)
        report = auditor.audit(snapshot(fig2, reported_overrides={"C1": 0.0}))
        for nid in ("N2", "N1"):
            assert report.w(nid)

    def test_discrepancy_sign(self, fig2):
        auditor = BalanceAuditor(fig2)
        check = auditor.check_node(
            snapshot(fig2, reported_overrides={"C4": 1.0}), "N3"
        )
        # Measured exceeds reported: 3 kW unaccounted.
        assert check.measured - check.reported_sum == pytest.approx(3.0)

    def test_tolerance_absorbs_meter_noise(self, fig2):
        auditor = BalanceAuditor(fig2, tolerance=0.5)
        report = auditor.audit(snapshot(fig2, reported_overrides={"C4": 3.9}))
        assert not report.any_failure

    def test_only_instrumented_nodes_checked(self, fig2):
        auditor = BalanceAuditor(fig2, instrumented=("N1",))
        report = auditor.audit(snapshot(fig2, reported_overrides={"C4": 1.0}))
        assert report.failing_nodes() == ("N1",)
        assert not report.w("N3")  # no meter there

    def test_rejects_balance_meter_on_leaf(self, fig2):
        with pytest.raises(TopologyError):
            BalanceAuditor(fig2, instrumented=("C1",))


class TestClass1BCircumvention:
    """Proposition 2 in action: over-reporting a neighbour hides theft."""

    def test_balanced_attack_evades_all_checks(self, fig2):
        # Mallory (C4) steals 3 kW: she consumes 7 but the pair C4+C5
        # still reports a total matching physical flow because C5 is
        # over-reported by the same 3 kW.
        snap = snapshot(
            fig2,
            actual_overrides={"C4": 7.0},
            reported_overrides={"C4": 4.0, "C5": 8.0},
        )
        auditor = BalanceAuditor(fig2)
        report = auditor.audit(snap)
        assert not report.any_failure  # the theft is invisible to eq (5)

    def test_unbalanced_attack_is_caught(self, fig2):
        snap = snapshot(
            fig2,
            actual_overrides={"C4": 7.0},
            reported_overrides={"C4": 4.0},
        )
        auditor = BalanceAuditor(fig2)
        assert auditor.audit(snap).any_failure


class TestCompromisedMeters:
    def test_compromised_meter_reports_pass(self, fig2):
        auditor = BalanceAuditor(fig2)
        auditor.compromise_meter("N3")
        report = auditor.audit(snapshot(fig2, reported_overrides={"C4": 1.0}))
        assert not report.w("N3")
        assert report.w("N1")  # root still honest

    def test_compromise_path_spares_root(self, fig2):
        auditor = BalanceAuditor(fig2)
        count = auditor.compromise_path("C4")
        assert count == 1  # only N3; N1 (root) spared
        report = auditor.audit(snapshot(fig2, reported_overrides={"C4": 1.0}))
        checks = report.checks.items()
        forged = [nid for nid, check in checks if check.compromised_meter]
        assert forged == ["N3"]

    def test_compromise_path_including_root(self, fig2):
        auditor = BalanceAuditor(fig2)
        count = auditor.compromise_path("C4", spare_root=False)
        assert count == 2
        report = auditor.audit(snapshot(fig2, reported_overrides={"C4": 1.0}))
        assert not report.any_failure  # fully blinded

    def test_compromise_path_rejects_internal_node(self, fig2):
        auditor = BalanceAuditor(fig2)
        with pytest.raises(TopologyError):
            auditor.compromise_path("N3")

    def test_compromise_unknown_meter(self, fig2):
        auditor = BalanceAuditor(fig2, instrumented=("N1",))
        with pytest.raises(TopologyError):
            auditor.compromise_meter("N3")


class TestAlarmRules:
    def test_child_fails_parent_passes_alarm(self, fig2):
        """Section V-B rule 1: W true at a node, false at its parent."""
        auditor = BalanceAuditor(fig2)
        auditor.compromise_meter("N1")  # root forges a pass
        report = auditor.audit(snapshot(fig2, reported_overrides={"C4": 1.0}))
        assert report.w("N3") and not report.w("N1")
        assert "N3" in auditor.inconsistency_alarms(report)

    def test_parent_fails_all_children_pass_alarm(self, fig2):
        """Section V-B rule 2: parent W true, all internal children pass."""
        auditor = BalanceAuditor(fig2)
        auditor.compromise_meter("N3")  # the child hides its failure
        report = auditor.audit(snapshot(fig2, reported_overrides={"C4": 1.0}))
        assert report.w("N1") and not report.w("N3") and not report.w("N2")
        assert "N1" in auditor.inconsistency_alarms(report)

    def test_no_alarms_for_consistent_failures(self, fig2):
        auditor = BalanceAuditor(fig2)
        report = auditor.audit(snapshot(fig2, reported_overrides={"C4": 1.0}))
        assert auditor.inconsistency_alarms(report) == ()
