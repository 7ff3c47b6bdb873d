"""Electric distribution grid substrate.

The paper models the (radial) distribution grid as an unbalanced n-ary tree
whose internal nodes are buses/transformers carrying *balance meters* and
whose leaves are consumers and loss terms (Section V, Fig. 2).  This
subpackage implements that representation, the balance check of eqs (4)-(6),
the W-event alarm logic of Section V-B, and the investigation procedures of
Section V-C.
"""

from repro.grid.topology import (
    Node,
    NodeKind,
    RadialTopology,
)
from repro.grid.snapshot import DemandSnapshot
from repro.grid.balance import BalanceAuditor, BalanceCheckReport, NodeCheck
from repro.grid.investigation import (
    InvestigationResult,
    deepest_failure_investigation,
    serviceman_search,
)
from repro.grid.builder import (
    build_figure2_topology,
    build_linear_topology,
    build_random_topology,
)
from repro.grid.losses import FeederSegment, ImpedanceLossModel
from repro.grid.render import render_tree
from repro.grid.serialization import (
    load_topology,
    save_topology,
    topology_from_dict,
    topology_to_dict,
)

__all__ = [
    "FeederSegment",
    "ImpedanceLossModel",
    "build_linear_topology",
    "load_topology",
    "render_tree",
    "save_topology",
    "topology_from_dict",
    "topology_to_dict",
    "BalanceAuditor",
    "BalanceCheckReport",
    "DemandSnapshot",
    "InvestigationResult",
    "Node",
    "NodeCheck",
    "NodeKind",
    "RadialTopology",
    "build_figure2_topology",
    "build_random_topology",
    "deepest_failure_investigation",
    "serviceman_search",
]
