"""Unit tests for theft-investigation procedures (Section V-C)."""

import pytest

from repro.errors import TopologyError
from repro.grid.balance import BalanceAuditor
from repro.grid.builder import (
    build_figure2_topology,
    build_linear_topology,
    build_random_topology,
)
from repro.grid.investigation import (
    deepest_failure_investigation,
    exhaustive_inspection_cost,
    serviceman_search,
)
from repro.grid.snapshot import DemandSnapshot


def run_case1(auditor, snapshot):
    """Audit, then run the Case-1 investigation on the report."""
    return deepest_failure_investigation(
        auditor.topology, auditor.audit(snapshot)
    )


def theft_snapshot(topo, thief, under_report=2.0):
    actual = {c: 3.0 for c in topo.consumers()}
    snap = DemandSnapshot(topology=topo, actual=actual)
    return snap.with_reported({thief: 3.0 - under_report})


class TestCase1DeepestFailure:
    def test_localises_thiefs_parent_neighbourhood(self):
        topo = build_figure2_topology()
        auditor = BalanceAuditor(topo)
        snap = theft_snapshot(topo, "C4")
        result = run_case1(auditor, snap)
        assert result.localized_node == "N3"
        assert set(result.suspect_consumers) == {"C4", "C5"}

    def test_requires_a_failure(self):
        topo = build_figure2_topology()
        auditor = BalanceAuditor(topo)
        snap = DemandSnapshot(
            topology=topo, actual={c: 1.0 for c in topo.consumers()}
        )
        report = auditor.audit(snap)
        with pytest.raises(TopologyError):
            deepest_failure_investigation(topo, report)

    def test_on_random_tree_thief_always_in_suspects(self, rng):
        topo = build_random_topology(n_consumers=40, seed=3)
        auditor = BalanceAuditor(topo)
        for thief in list(topo.consumers())[:10]:
            result = run_case1(auditor, theft_snapshot(topo, thief))
            assert thief in result.suspect_consumers

    def test_suspect_set_smaller_than_population(self):
        topo = build_random_topology(n_consumers=64, branching=4, seed=1)
        auditor = BalanceAuditor(topo)
        result = run_case1(auditor, theft_snapshot(topo, "c10"))
        assert len(result.suspect_consumers) < len(topo.consumers())


class TestCase2ServicemanSearch:
    def test_finds_thief_directly(self):
        topo = build_random_topology(n_consumers=32, branching=4, seed=7)
        result = serviceman_search(topo, theft_snapshot(topo, "c5"))
        assert result.suspect_consumers == ("c5",)

    def test_cost_logarithmic_on_balanced_tree(self):
        topo = build_random_topology(n_consumers=256, branching=4, seed=2)
        result = serviceman_search(topo, theft_snapshot(topo, "c100"))
        # BFS descent checks only one branch per level: far fewer checks
        # than inspecting all 256 consumers.
        assert result.checks_performed < exhaustive_inspection_cost(topo) / 4

    def test_cost_linear_on_path_topology(self):
        topo = build_linear_topology(32)
        result = serviceman_search(topo, theft_snapshot(topo, "c31"))
        assert "c31" in result.suspect_consumers
        assert result.checks_performed >= 32  # degenerate O(N) shape

    def test_no_theft_returns_no_suspect_narrowing(self):
        topo = build_figure2_topology()
        snap = DemandSnapshot(
            topology=topo, actual={c: 1.0 for c in topo.consumers()}
        )
        result = serviceman_search(topo, snap)
        assert result.localized_node == topo.root_id

    def test_rejects_start_at_leaf(self):
        topo = build_figure2_topology()
        with pytest.raises(TopologyError):
            serviceman_search(
                theft_snapshot(topo, "C1").topology,
                theft_snapshot(topo, "C1"),
                start="C1",
            )

    def test_multiple_thieves_in_different_subtrees(self):
        topo = build_figure2_topology()
        actual = {c: 3.0 for c in topo.consumers()}
        snap = DemandSnapshot(topology=topo, actual=actual).with_reported(
            {"C1": 1.0, "C4": 1.0}
        )
        result = serviceman_search(topo, snap)
        # Discrepancies in both subtrees: suspects must cover both thieves.
        assert "C1" in result.suspect_consumers
        assert "C4" in result.suspect_consumers
