"""Liveness gate: every public ``src/`` definition is reached from a run path.

A static walk (stdlib :mod:`ast`, no imports executed) starts from the
entry points — the CLI, ``perfbench/``, ``benchmarks/`` and
``examples/`` — and computes the fixed point of the names each reached
body uses (``Name`` ids, ``Attribute`` attrs and the original names of
import aliases).  A module-level definition whose name is used is
reached, and its body's names join the set.  Re-exports in a package
``__init__.py`` and names listed in ``__all__`` are not uses, so a
definition kept alive only by its package's public surface is still
dead.

The walk is name-level: two definitions sharing a name are reached
together.  That errs towards "reached", so the gate never flags live
code; it only misses dead code hidden behind a common name.

Every public module-level function or class in ``src/repro`` that the
walk does not reach must be on :data:`ALLOWED` with the part of the
paper it reproduces (a section, proposition, figure or equation) or
"fault-injection harness", and the id of the test that runs it.
Allow-listed definitions are roots of the walk, so their helpers need
no entry of their own.  An entry that the entry points reach anyway, or
whose definition or test no longer exists, is stale and fails the gate
too.
"""

from __future__ import annotations

import ast
from functools import lru_cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
ENTRY_POINTS = (
    "src/repro/cli.py",
    "src/repro/__main__.py",
    "perfbench/*.py",
    "benchmarks/*.py",
    "examples/*.py",
)

#: Public definitions that only tests run, keyed by ``module.name``:
#: ``(why it stays, test id that runs it)``.
ALLOWED: dict[str, tuple[str, str]] = {
    "repro.attacks.model.verify_proposition1": (
        "Proposition 1: a successful theft under-reports at some t",
        "tests/attacks/test_model.py::TestProposition1::test_holds_for_any_theft",
    ),
    "repro.attacks.model.verify_proposition2": (
        "Proposition 2: a balanced theft over-reports a neighbour",
        "tests/attacks/test_model.py::TestProposition2",
    ),
    "repro.attacks.injection.combination.CombinationAttack": (
        "Section VIII-F3: 3B combined with 1B and/or 2B",
        "tests/attacks/test_combination.py::TestCombination"
        "::test_under_report_plus_swap",
    ),
    "repro.durability.crash.CrashPoint": (
        "fault-injection harness: where a simulated crash strikes the WAL",
        "tests/durability/test_crash.py::TestCrashPoint",
    ),
    "repro.durability.crash.CrashingWAL": (
        "fault-injection harness: a WAL that dies at a CrashPoint",
        "tests/durability/test_crash.py::TestCrashingWAL",
    ),
    "repro.durability.crash.SimulatedCrash": (
        "fault-injection harness: the exception a CrashingWAL raises",
        "tests/durability/test_crash.py::TestCrashPoint"
        "::test_simulated_crash_is_not_a_library_error",
    ),
    "repro.evaluation.figures.figure1_tap_demo": (
        "Figure 1: a tap upstream of an uncompromised meter",
        "tests/evaluation/test_figures.py::TestFigure1Demo::test_tap_shortfall",
    ),
    "repro.grid.builder.build_figure2_topology": (
        "Figure 2: the radial topology as an n-ary tree",
        "tests/grid/test_topology.py::TestFigure2Instance",
    ),
    "repro.evaluation.fp_protocols.false_positive_study": (
        "Section VIII: the single-week false-positive protocol against "
        "scoring every held-out week (EXPERIMENTS.md X10)",
        "tests/evaluation/test_fp_protocols.py::TestFalsePositiveProtocols"
        "::test_strict_protocol_compounds",
    ),
    "repro.grid.losses.ImpedanceLossModel": (
        "Section V-A: loss leaves of eq (4) from line impedances",
        "tests/grid/test_losses.py::TestImpedanceLossModel",
    ),
    "repro.pricing.billing.bill": (
        "eq (2): the utility bill B = sum lambda(t) D(t) dt",
        "tests/pricing/test_billing.py::TestBill",
    ),
    "repro.pricing.billing.is_successful_theft": (
        "eq (1): the successful-theft condition alpha > 0",
        "tests/pricing/test_billing.py::TestAttackerProfit",
    ),
    "repro.pricing.market.RealTimeMarket": (
        "Section VII-A: the real-time market that sets RTP prices (4B)",
        "tests/integration/test_market_4b.py::TestMarketDriven4B",
    ),
    "repro.pricing.market.default_market": (
        "Section VII-A: a three-technology merit order for the RTP market",
        "tests/integration/test_market_4b.py::TestMarketDriven4B",
    ),
    "repro.pricing.schemes.FlatRatePricing": (
        "Section III: flat-rate pricing, a column of Table I",
        "tests/pricing/test_schemes.py::TestFlatRate",
    ),
    "repro.stats.truncated_normal.TruncatedNormal": (
        "Section VIII-B1: the truncated normal of the Integrated ARIMA "
        "attack, with its analytical moments",
        "tests/stats/test_truncated_normal.py::TestTruncatedNormal",
    ),
    "repro.data.preprocessing.preprocess_series": (
        "Section VIII-A: consumers with unrecoverable gaps or a stuck "
        "meter are excluded from the dataset",
        "tests/data/test_preprocessing.py::TestPipeline",
    ),
    "repro.timeseries.acf.pacf": (
        "Section VII-C: Box-Jenkins identification of the ARIMA baseline",
        "tests/timeseries/test_acf.py::TestPACF",
    ),
    "repro.timeseries.ar.fit_ar_yule_walker": (
        "Section VII-C: Yule-Walker AR estimate for the ARIMA baseline",
        "tests/timeseries/test_ar.py::TestYuleWalker",
    ),
    "repro.timeseries.order.select_order": (
        "Section VII-C: AIC order selection for the ARIMA baseline",
        "tests/timeseries/test_order.py::TestSelectOrder",
    ),
    "repro.timeseries.order.candidate_orders": (
        "Section VII-C: the (p, d, q) grid that AIC selection searches",
        "tests/timeseries/test_order.py::TestCandidateOrders",
    ),
    "repro.timeseries.seasonal.SeasonalProfile": (
        "Section VII-D: weekly consumption patterns tend to repeat",
        "tests/timeseries/test_seasonal.py::TestFit",
    ),
    "repro.detectors.threshold.MinimumAverageDetector": (
        "Section VI-A2: the minimum-average detector that bounds 2A",
        "tests/detectors/test_threshold.py::TestMinimumAverage",
    ),
    "repro.timeseries.diagnostics.ljung_box": (
        "Section VII-C: whiteness of the ARIMA baseline's residuals",
        "tests/timeseries/test_diagnostics.py::TestLjungBox",
    ),
}


class _Module:
    """One parsed source file: its definitions, roots and import aliases."""

    def __init__(self, path: Path, name: str) -> None:
        self.path = path
        self.name = name
        self.tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        # local name -> imported name, over every import in the file.
        self.aliases: dict[str, str] = {}
        for node in ast.walk(self.tree):
            if isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    self.aliases[alias.asname or alias.name] = alias.name
        # module-level name -> defining statements; statements run on import.
        self.definitions: dict[str, list[ast.AST]] = {}
        self.roots: list[ast.AST] = []
        self._collect(self.tree.body)

    def _collect(self, body: list[ast.stmt]) -> None:
        for node in body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                self.definitions.setdefault(node.name, []).append(node)
            elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [
                    node.target
                ]
                names = [
                    leaf.id
                    for target in targets
                    for leaf in ast.walk(target)
                    if isinstance(leaf, ast.Name)
                ]
                if names == ["__all__"]:
                    continue
                for name in names:
                    self.definitions.setdefault(name, []).append(node)
            elif isinstance(node, ast.If):
                self.roots.append(node.test)
                self._collect(node.body)
                self._collect(node.orelse)
            elif isinstance(node, ast.Try):
                self._collect(node.body)
                for handler in node.handlers:
                    self._collect(handler.body)
                self._collect(node.orelse)
                self._collect(node.finalbody)
            elif not (
                isinstance(node, ast.Expr)
                and isinstance(node.value, ast.Constant)
            ):
                self.roots.append(node)

    def uses(self, node: ast.AST) -> set[str]:
        """Names ``node`` uses, with import aliases resolved."""
        found: set[str] = set()
        for leaf in ast.walk(node):
            if isinstance(leaf, ast.Name):
                found.add(self.aliases.get(leaf.id, leaf.id))
            elif isinstance(leaf, ast.Attribute):
                found.add(leaf.attr)
            elif isinstance(leaf, ast.alias):
                found.add(leaf.name.rpartition(".")[2])
        return found

    def public(self) -> list[tuple[str, ast.AST]]:
        return [
            (name, node)
            for name, nodes in self.definitions.items()
            for node in nodes
            if not name.startswith("_")
            and isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            )
        ]


def _library() -> list[_Module]:
    modules = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        modules.append(_Module(path, ".".join(parts)))
    return modules


def _entry_files() -> list[Path]:
    files: set[Path] = set()
    for pattern in ENTRY_POINTS:
        files.update(ROOT.glob(pattern))
    return sorted(files)


@lru_cache(maxsize=1)
def _index() -> tuple[list[_Module], frozenset[str]]:
    """The library's modules and the names the entry-point files use."""
    entry = {path.resolve() for path in _entry_files()}
    used: set[str] = set()
    for path in entry:
        module = _Module(path, path.stem)
        used |= module.uses(module.tree)
    library = [m for m in _library() if m.path.resolve() not in entry]
    return library, frozenset(used)


def reached_names(roots: frozenset[str] = frozenset()) -> set[str]:
    """Fixed point of the names used from the entry points.

    ``roots`` are extra ``module.name`` definitions whose bodies count
    as reached (the allow-list), so their helpers are reached too.
    """
    library, used = _index()
    defined: dict[str, list[tuple[_Module, ast.AST]]] = {}
    pending: list[tuple[_Module, ast.AST]] = []
    for module in library:
        pending.extend((module, root) for root in module.roots)
        for name, nodes in module.definitions.items():
            defined.setdefault(name, []).extend((module, n) for n in nodes)
            if f"{module.name}.{name}" in roots:
                pending.extend((module, n) for n in nodes)
    reached: set[str] = set()
    frontier = set(used)
    while frontier:
        reached |= frontier
        for name in frontier:
            pending.extend(defined.get(name, ()))
        frontier = set()
        for module, node in pending:
            frontier |= module.uses(node) - reached
        pending = []
    return reached


def unreached(roots: frozenset[str] = frozenset()) -> dict[str, str]:
    """``module.name`` -> ``path:line`` of every unreached public def."""
    library, _ = _index()
    used = reached_names(roots)
    return {
        f"{module.name}.{name}": f"{module.path.relative_to(ROOT)}:{node.lineno}"
        for module in library
        for name, node in module.public()
        if name not in used
    }


def _test_exists(test_id: str) -> bool:
    path, *chain = test_id.split("::")
    file = ROOT / path
    if not file.is_file() or not chain:
        return False
    body = ast.parse(file.read_text(encoding="utf-8")).body
    for part in chain:
        match = [
            node
            for node in body
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            )
            and node.name == part
        ]
        if not match:
            return False
        body = getattr(match[0], "body", [])
    return True


def test_every_public_definition_is_reached_or_allowed() -> None:
    dead = {
        key: where
        for key, where in unreached(frozenset(ALLOWED)).items()
        if key not in ALLOWED
    }
    assert not dead, "unreached public definitions:\n" + "\n".join(
        f"  {key} ({where})" for key, where in sorted(dead.items())
    )


def test_allow_list_has_no_stale_entries() -> None:
    dead = unreached()
    stale = sorted(key for key in ALLOWED if key not in dead)
    assert not stale, (
        "allow-listed definitions that are reached or no longer exist: "
        f"{stale}"
    )


@pytest.mark.parametrize("key", sorted(ALLOWED))
def test_allow_list_entry_names_a_reason_and_a_test(key: str) -> None:
    reason, test_id = ALLOWED[key]
    assert reason.startswith(
        ("Section", "Proposition", "Figure", "eq (", "fault-injection harness")
    ), reason
    assert _test_exists(test_id), f"{key}: no test {test_id}"
