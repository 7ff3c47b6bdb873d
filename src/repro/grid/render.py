"""ASCII rendering of distribution-grid topologies.

For CLI output and examples: draws the radial tree with node kinds and,
optionally, per-node annotations (balance-check state, demands).
"""

from __future__ import annotations

from typing import Callable, Mapping

from repro.grid.topology import NodeKind, RadialTopology

_KIND_MARKERS = {
    NodeKind.INTERNAL: "○",
    NodeKind.CONSUMER: "▣",
    NodeKind.LOSS: "~",
}

_ASCII_MARKERS = {
    NodeKind.INTERNAL: "(o)",
    NodeKind.CONSUMER: "[#]",
    NodeKind.LOSS: "~~~",
}


def render_tree(
    topology: RadialTopology,
    annotate: Callable[[str], str] | Mapping[str, str] | None = None,
    unicode_markers: bool = True,
) -> str:
    """Render the topology as an indented tree.

    ``annotate`` may be a mapping or callable providing a per-node
    suffix (e.g. a demand figure or a W-event flag).
    """
    markers = _KIND_MARKERS if unicode_markers else _ASCII_MARKERS

    def suffix(node_id: str) -> str:
        if annotate is None:
            return ""
        if callable(annotate):
            text = annotate(node_id)
        else:
            text = annotate.get(node_id, "")
        return f"  {text}" if text else ""

    lines: list[str] = []

    def walk(node_id: str, prefix: str, is_last: bool, is_root: bool) -> None:
        marker = markers[topology.node(node_id).kind]
        if is_root:
            lines.append(f"{marker} {node_id}{suffix(node_id)}")
            child_prefix = ""
        else:
            connector = "└── " if is_last else "├── "
            lines.append(
                f"{prefix}{connector}{marker} {node_id}{suffix(node_id)}"
            )
            child_prefix = prefix + ("    " if is_last else "│   ")
        children = topology.children(node_id)
        for i, child in enumerate(children):
            walk(child, child_prefix, i == len(children) - 1, False)

    walk(topology.root_id, "", True, True)
    return "\n".join(lines)
