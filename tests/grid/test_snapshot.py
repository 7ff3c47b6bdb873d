"""Unit tests for demand snapshots and eq (4) aggregation."""

import pytest

from repro.errors import TopologyError
from repro.grid.builder import build_figure2_topology
from repro.grid.snapshot import DemandSnapshot


@pytest.fixture
def fig2():
    return build_figure2_topology()


def make_snapshot(topo, **overrides):
    actual = {"C1": 1.0, "C2": 2.0, "C3": 3.0, "C4": 4.0, "C5": 5.0}
    losses = {"L1": 0.1, "L2": 0.2, "L3": 0.3}
    return DemandSnapshot(
        topology=topo, actual=actual, losses=losses, **overrides
    )


class TestAggregation:
    def test_equation4_at_root(self, fig2):
        snap = make_snapshot(fig2)
        # D_N1 = sum consumers + sum losses (Fig. 2 caption).
        assert snap.true_demand_at("N1") == pytest.approx(15.0 + 0.6)

    def test_equation4_at_n3(self, fig2):
        snap = make_snapshot(fig2)
        assert snap.true_demand_at("N3") == pytest.approx(4.0 + 5.0 + 0.3)

    def test_additivity_parent_equals_children(self, fig2):
        snap = make_snapshot(fig2)
        parent = snap.true_demand_at("N1")
        children = (
            snap.true_demand_at("N2")
            + snap.true_demand_at("N3")
            + snap.losses["L1"]
        )
        assert parent == pytest.approx(children)

    def test_leaf_demand(self, fig2):
        snap = make_snapshot(fig2)
        assert snap.true_demand_at("C4") == 4.0
        assert snap.true_demand_at("L2") == 0.2

    def test_reported_defaults_to_actual(self, fig2):
        snap = make_snapshot(fig2)
        assert snap.reported == snap.actual

    def test_reported_sum_uses_reported(self, fig2):
        snap = make_snapshot(fig2).with_reported({"C4": 10.0})
        assert snap.reported_sum_at("N3") == pytest.approx(10.0 + 5.0 + 0.3)
        # True demand unchanged.
        assert snap.true_demand_at("N3") == pytest.approx(9.3)


class TestValidation:
    def test_missing_consumer_rejected(self, fig2):
        with pytest.raises(TopologyError):
            DemandSnapshot(topology=fig2, actual={"C1": 1.0})

    def test_unknown_consumer_rejected(self, fig2):
        actual = {c: 1.0 for c in fig2.consumers()}
        actual["ghost"] = 1.0
        with pytest.raises(TopologyError):
            DemandSnapshot(topology=fig2, actual=actual)

    def test_negative_demand_rejected(self, fig2):
        actual = {c: 1.0 for c in fig2.consumers()}
        actual["C1"] = -1.0
        with pytest.raises(TopologyError):
            DemandSnapshot(topology=fig2, actual=actual)

    def test_missing_losses_default_zero(self, fig2):
        actual = {c: 1.0 for c in fig2.consumers()}
        snap = DemandSnapshot(topology=fig2, actual=actual)
        assert snap.losses == {"L1": 0.0, "L2": 0.0, "L3": 0.0}

    def test_with_reported_unknown_consumer(self, fig2):
        snap = make_snapshot(fig2)
        with pytest.raises(TopologyError):
            snap.with_reported({"ghost": 1.0})

