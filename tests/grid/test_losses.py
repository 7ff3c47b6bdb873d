"""Tests for impedance-based loss modelling."""

import pytest

from repro.errors import TopologyError
from repro.grid.builder import build_figure2_topology
from repro.grid.losses import FeederSegment, ImpedanceLossModel


@pytest.fixture
def fig2():
    return build_figure2_topology()


class TestFeederSegment:
    def test_i2r_arithmetic(self):
        # 100 kW at 10 kV -> 10 A; loss = 100 * 0.5 / 1000 kW = 0.05 kW.
        segment = FeederSegment(resistance_ohm=0.5, voltage_kv=10.0)
        assert segment.loss_kw(100.0) == pytest.approx(0.05)

    def test_loss_quadratic_in_power(self):
        segment = FeederSegment(resistance_ohm=1.0, voltage_kv=11.0)
        assert segment.loss_kw(200.0) == pytest.approx(
            4.0 * segment.loss_kw(100.0)
        )

    def test_zero_power_zero_loss(self):
        segment = FeederSegment(resistance_ohm=1.0, voltage_kv=11.0)
        assert segment.loss_kw(0.0) == 0.0

    def test_rejects_bad_parameters(self):
        with pytest.raises(TopologyError):
            FeederSegment(resistance_ohm=-1.0, voltage_kv=11.0)
        with pytest.raises(TopologyError):
            FeederSegment(resistance_ohm=1.0, voltage_kv=0.0)
        with pytest.raises(TopologyError):
            FeederSegment(resistance_ohm=1.0, voltage_kv=11.0).loss_kw(-5.0)


class TestImpedanceLossModel:
    def test_uniform_model_covers_internal_nodes(self, fig2):
        model = ImpedanceLossModel.uniform(fig2)
        assert set(model.segments) == {"N1", "N2", "N3"}

    def test_losses_assigned_to_loss_leaves(self, fig2):
        model = ImpedanceLossModel.uniform(
            fig2, resistance_ohm=1.0, voltage_kv=10.0
        )
        demands = {"C1": 10.0, "C2": 10.0, "C3": 10.0, "C4": 20.0, "C5": 20.0}
        losses = model.compute_losses(demands)
        assert set(losses) == {"L1", "L2", "L3"}
        # N3 feeds 40 kW -> I = 4 A -> 16 W = 0.016 kW.
        assert losses["L3"] == pytest.approx(0.016)
        # N2 feeds 30 kW -> 0.009 kW.
        assert losses["L2"] == pytest.approx(0.009)
        # N1 feeds 70 kW -> 0.049 kW.
        assert losses["L1"] == pytest.approx(0.049)

    def test_deeper_subtrees_lose_less(self, fig2):
        model = ImpedanceLossModel.uniform(fig2)
        demands = {c: 5.0 for c in fig2.consumers()}
        losses = model.compute_losses(demands)
        assert losses["L1"] > losses["L2"]

    def test_snapshot_balance_with_losses(self, fig2):
        """An honest grid with impedance losses still balances: the
        utility calculates the loss leaves (Section V-A)."""
        from repro.grid.balance import BalanceAuditor
        from repro.grid.snapshot import DemandSnapshot

        model = ImpedanceLossModel.uniform(fig2)
        demands = {c: 5.0 for c in fig2.consumers()}
        snapshot = DemandSnapshot(
            topology=fig2, actual=demands, losses=model.compute_losses(demands)
        )
        auditor = BalanceAuditor(fig2)
        assert not auditor.audit(snapshot).any_failure

    def test_rejects_segment_on_leaf(self, fig2):
        segment = FeederSegment(resistance_ohm=1.0, voltage_kv=11.0)
        with pytest.raises(TopologyError):
            ImpedanceLossModel(topology=fig2, segments={"C1": segment})

    def test_rejects_incomplete_demands(self, fig2):
        model = ImpedanceLossModel.uniform(fig2)
        with pytest.raises(TopologyError):
            model.compute_losses({"C1": 1.0})
