"""Tests for ASCII topology rendering."""

from repro.grid.balance import BalanceAuditor
from repro.grid.builder import build_figure2_topology
from repro.grid.render import render_tree
from repro.grid.snapshot import DemandSnapshot


class TestRenderTree:
    def test_all_nodes_present(self):
        topo = build_figure2_topology()
        text = render_tree(topo)
        for nid in topo.iter_breadth_first():
            assert nid in text

    def test_root_first_line(self):
        topo = build_figure2_topology()
        first = render_tree(topo).splitlines()[0]
        assert "N1" in first

    def test_ascii_mode(self):
        topo = build_figure2_topology()
        text = render_tree(topo, unicode_markers=False)
        assert "[#]" in text  # consumer marker
        assert "(o)" in text  # internal marker
        assert "○" not in text

    def test_annotation_mapping(self):
        topo = build_figure2_topology()
        text = render_tree(topo, annotate={"C4": "5.0 kW"})
        assert "5.0 kW" in text

    def test_annotation_callable(self):
        topo = build_figure2_topology()
        text = render_tree(topo, annotate=lambda nid: f"<{nid}>")
        assert "<C1>" in text

    def test_indentation_reflects_depth(self):
        topo = build_figure2_topology()
        lines = render_tree(topo).splitlines()
        c4_line = next(l for l in lines if "C4" in l)
        n3_line = next(l for l in lines if "N3" in l)
        assert len(c4_line) - len(c4_line.lstrip("│ ├└─")) >= 0
        assert c4_line.index("C4") > n3_line.index("N3")


def render_audit(topology, failing_nodes):
    """The tree with each node that fails its balance check marked."""
    failing = set(failing_nodes)

    def annotate(node_id):
        return "<< W: balance check FAILED" if node_id in failing else ""

    return render_tree(topology, annotate=annotate)


class TestRenderAudit:
    def test_failures_marked(self):
        topo = build_figure2_topology()
        snap = DemandSnapshot(
            topology=topo, actual={c: 2.0 for c in topo.consumers()}
        ).with_reported({"C4": 0.5})
        report = BalanceAuditor(topo).audit(snap)
        text = render_audit(topo, report.failing_nodes())
        assert text.count("FAILED") == len(report.failing_nodes())
        n3_line = next(l for l in text.splitlines() if "N3" in l)
        assert "FAILED" in n3_line

    def test_clean_audit_unmarked(self):
        topo = build_figure2_topology()
        text = render_audit(topo, ())
        assert "FAILED" not in text
