"""Liveness gate: every public ``src/`` definition is reached from a run path.

A static walk (stdlib :mod:`ast`; no project code is imported) starts
from the entry points — the CLI, ``perfbench/``, ``benchmarks/`` and
``examples/`` — and computes the fixed point of the names each reached
body uses (``Name`` ids, ``Attribute`` attrs and the original names of
import aliases).  A module-level definition whose name is used is
reached, and its body's names join the set.  Re-exports in a package
``__init__.py`` and names listed in ``__all__`` are not uses, so a
definition kept alive only by its package's public surface is still
dead.

Methods are gated the same way.  A reached class contributes only its
bases, decorators, class-level statements and dunders; each other
method's body joins once its name is used, or held in an
identifier-shaped string constant (``getattr(obj, "name")``, or
perfbench's ``patch(Owner, "name", ...)``).  A method that overrides a
method of a stdlib base class (``logging.Handler.emit``) joins with its
class, since the stdlib calls it.  Strings count for methods only: the
module-level rule is unchanged.

The walk is name-level: two definitions sharing a name are reached
together, and an override is reached when the base method's name is.
That errs towards "reached", so the gate never flags live code; it only
misses dead code hidden behind a common name.

Every public module-level function or class, and every public method of
one, in ``src/repro`` that the walk does not reach must be on
:data:`ALLOWED` (keyed ``module.name`` or ``module.Class.method``) with
the part of the paper it reproduces (a section, proposition, figure or
equation) or "fault-injection harness", and the id of the test that
runs it.  Allow-listed definitions are roots of the walk, so their
helpers need no entry of their own; a class entry roots the class, not
its methods.  An entry that the entry points reach anyway, or whose
definition or test no longer exists, is stale and fails the gate too.
"""

from __future__ import annotations

import ast
import builtins
import importlib
import re
import sys
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
    "repro.grid.investigation.deepest_failure_investigation": (
        "Section V-C: Case 1, the deepest failing balance meter "
        "localises the theft",
        "tests/grid/test_investigation.py::TestCase1DeepestFailure",
    ),
    "repro.grid.balance.BalanceAuditor.inconsistency_alarms": (
        "Section V-B: the two W-propagation alarm rules that expose a "
        "faulty or forged balance meter",
        "tests/grid/test_balance.py::TestAlarmRules",
    ),
    "repro.grid.balance.BalanceAuditor.compromise_meter": (
        "Section VI-A: Mallory forges a balance meter so its check passes",
        "tests/grid/test_balance.py::TestCompromisedMeters"
        "::test_compromised_meter_reports_pass",
    ),
    "repro.grid.balance.BalanceAuditor.compromise_path": (
        "Section VI-A: Mallory compromises every balance meter on her "
        "path below the trusted root",
        "tests/grid/test_balance.py::TestCompromisedMeters"
        "::test_compromise_path_including_root",
    ),
    "repro.grid.losses.ImpedanceLossModel.compute_losses": (
        "Section V-A: the loss leaves of eq (4) from line impedances",
        "tests/grid/test_losses.py::TestImpedanceLossModel"
        "::test_losses_assigned_to_loss_leaves",
    ),
    "repro.metering.errors_model.MeasurementErrorModel"
    ".within_band_probability": (
        "Section VII-A: the EEI accuracy bands the meter error model is "
        "calibrated to",
        "tests/metering/test_errors_model.py::TestCalibration",
    ),
    "repro.pricing.market.RealTimeMarket.simulate_prices": (
        "Section VII-A: clearing prices over a horizon become the RTP "
        "tariff of 4B",
        "tests/pricing/test_market.py::TestSimulation",
    ),
    "repro.stats.truncated_normal.TruncatedNormal.variance": (
        "Section VIII-B1: the analytical variance of the Integrated "
        "ARIMA attack's truncated normal",
        "tests/stats/test_truncated_normal.py::TestTruncatedNormal"
        "::test_sample_variance_matches_analytical",
    ),
    "repro.timeseries.seasonal.SeasonalProfile.predict": (
        "Section VII-D: weekly patterns repeat, so the profile mean is "
        "the seasonal-naive forecast",
        "tests/timeseries/test_seasonal.py::TestPredictAndZScores"
        "::test_predict_wraps_around",
    ),
    "repro.timeseries.seasonal.SeasonalProfile.zscores": (
        "Section VII-D: how far a week strays from the repeating weekly "
        "pattern, slot by slot",
        "tests/timeseries/test_seasonal.py::TestPredictAndZScores"
        "::test_zscores_flag_spike",
    ),
    "repro.metering.channel.LossyChannel.silence": (
        "fault-injection harness: a meter that dies outright instead of "
        "waiting for a stochastic outage",
        "tests/resilience/test_chaos.py::TestChaosReplay"
        "::test_breaker_trips_for_silenced_meter",
    ),
    "repro.metering.scramble.ScramblingChannel.silence": (
        "fault-injection harness: a collector outage that batches one "
        "consumer's readings deterministically",
        "tests/metering/test_scramble.py::TestOutageBatching"
        "::test_silenced_consumer_delivers_backlog_as_one_burst",
    ),
    "repro.storage.faults.FaultyIO.simulate_power_loss": (
        "fault-injection harness: power loss after a lying fsync drops "
        "the unsynced tail",
        "tests/storage/test_fault_injection.py::TestLyingFsync"
        "::test_power_loss_truncates_to_last_true_sync",
    ),
}


_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

Method = tuple[ast.ClassDef, ast.FunctionDef | ast.AsyncFunctionDef]


def _is_method(node: ast.AST) -> bool:
    return isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _shell(cls: ast.ClassDef) -> list[ast.AST]:
    """The parts of ``cls`` that run when the class is reached: bases,
    keywords, decorators, class-level statements and dunders."""
    return [
        *cls.bases,
        *cls.keywords,
        *cls.decorator_list,
        *(
            node
            for node in cls.body
            if not _is_method(node) or _is_dunder(node.name)
        ),
    ]


class _Module:
    """One parsed source file: its definitions, roots and import aliases."""

    def __init__(
        self, name: str, source: str, path: Path | None = None
    ) -> None:
        self.path = path
        self.name = name
        self.tree = ast.parse(source, str(path or name))
        # local name -> imported name, over every import in the file.
        self.aliases: dict[str, str] = {}
        # local name -> dotted origin, for resolving base classes.
        self.origins: dict[str, str] = {}
        for node in ast.walk(self.tree):
            if isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    local = alias.asname or alias.name
                    self.aliases[local] = alias.name
                    if node.module and not node.level:
                        self.origins[local] = f"{node.module}.{alias.name}"
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    head = alias.name.partition(".")[0]
                    self.origins[alias.asname or head] = (
                        alias.name if alias.asname else head
                    )
        # module-level name -> defining statements; statements run on import.
        self.definitions: dict[str, list[ast.AST]] = {}
        # non-dunder methods of module-level classes, gated by name.
        self.methods: list[Method] = []
        self.roots: list[ast.AST] = []
        self._collect(self.tree.body)

    @property
    def where(self) -> str:
        return str(self.path.relative_to(ROOT)) if self.path else self.name

    def _collect(self, body: list[ast.stmt]) -> None:
        for node in body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                self.definitions.setdefault(node.name, []).append(node)
                if isinstance(node, ast.ClassDef):
                    self.methods.extend(
                        (node, member)
                        for member in node.body
                        if _is_method(member) and not _is_dunder(member.name)
                    )
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

    def uses(self, node: ast.AST) -> tuple[set[str], set[str]]:
        """Names ``node`` uses (import aliases resolved), and the
        identifier-shaped strings it holds (``getattr`` targets)."""
        names: set[str] = set()
        strings: set[str] = set()
        for leaf in ast.walk(node):
            if isinstance(leaf, ast.Name):
                names.add(self.aliases.get(leaf.id, leaf.id))
            elif isinstance(leaf, ast.Attribute):
                names.add(leaf.attr)
            elif isinstance(leaf, ast.alias):
                names.add(leaf.name.rpartition(".")[2])
            elif isinstance(leaf, ast.Constant) and isinstance(
                leaf.value, str
            ) and _IDENTIFIER.match(leaf.value):
                strings.add(leaf.value)
        return names, strings

    def stdlib_base(self, base: ast.expr) -> object | None:
        """The stdlib class ``base`` names, or None (local or third-party)."""
        parts: list[str] = []
        while isinstance(base, ast.Attribute):
            parts.insert(0, base.attr)
            base = base.value
        if not isinstance(base, ast.Name):
            return None
        origin = self.origins.get(base.id)
        if origin is None and hasattr(builtins, base.id):
            origin = f"builtins.{base.id}"
        if origin is None:
            return None
        dotted = ".".join([origin, *parts])
        if dotted.partition(".")[0] not in sys.stdlib_module_names:
            return None
        module, _, attr = dotted.rpartition(".")
        try:
            return getattr(importlib.import_module(module), attr)
        except (ImportError, AttributeError):
            return None

    def public(self) -> list[tuple[str, ast.AST]]:
        """``name`` or ``Class.method`` -> node, for every public def."""
        found = [
            (name, node)
            for name, nodes in self.definitions.items()
            for node in nodes
            if not name.startswith("_")
            and isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            )
        ]
        found.extend(
            (f"{cls.name}.{method.name}", method)
            for cls, method in self.methods
            if not cls.name.startswith("_") and not method.name.startswith("_")
        )
        return found


class _Walk:
    """Fixed point of what the entry points reach in a library.

    A module-level definition joins when its name is used.  A class
    joins with its :func:`_shell` only; each method joins once its class
    has joined and its name is used or held as an identifier string, or
    when it overrides a method of a stdlib base (``logging.Handler.emit``
    runs although no source names it).  ``roots`` are ``module.name`` or
    ``module.Class.method`` definitions that join up front.
    """

    def __init__(
        self,
        library: list[_Module],
        entry: list[_Module],
        roots: frozenset[str] = frozenset(),
    ) -> None:
        self.library = library
        self.names: set[str] = set()
        self.strings: set[str] = set()
        self._joined: set[int] = set()
        self._pending: list[tuple[_Module, ast.AST]] = []
        for module in entry:
            self._pending.append((module, module.tree))
        for module in library:
            self._pending.extend((module, root) for root in module.roots)
        self._classes: dict[str, list[tuple[_Module, ast.ClassDef]]] = {}
        for module in library:
            for name, nodes in module.definitions.items():
                for node in nodes:
                    if isinstance(node, ast.ClassDef):
                        self._classes.setdefault(name, []).append(
                            (module, node)
                        )
                    if f"{module.name}.{name}" in roots:
                        self._join(module, node)
            for cls, method in module.methods:
                if f"{module.name}.{cls.name}.{method.name}" in roots:
                    self._join(module, method)
        self._run()

    def _join(self, module: _Module, node: ast.AST) -> bool:
        if id(node) in self._joined:
            return False
        self._joined.add(id(node))
        if isinstance(node, ast.ClassDef):
            self._pending.extend((module, part) for part in _shell(node))
        else:
            self._pending.append((module, node))
        return True

    def _stdlib_bases(
        self, module: _Module, cls: ast.ClassDef, seen: set[int]
    ) -> list[object]:
        """Stdlib classes ``cls`` derives from, through local bases."""
        if id(cls) in seen:
            return []
        seen.add(id(cls))
        found: list[object] = []
        for base in cls.bases:
            stdlib = module.stdlib_base(base)
            if stdlib is not None:
                found.append(stdlib)
            elif isinstance(base, ast.Name):
                name = module.aliases.get(base.id, base.id)
                for owner, local in self._classes.get(name, ()):
                    found.extend(self._stdlib_bases(owner, local, seen))
        return found

    def _overrides_stdlib(
        self, module: _Module, cls: ast.ClassDef, name: str
    ) -> bool:
        return any(
            hasattr(base, name)
            for base in self._stdlib_bases(module, cls, set())
        )

    def _run(self) -> None:
        while True:
            while self._pending:
                module, node = self._pending.pop()
                names, strings = module.uses(node)
                self.names |= names
                self.strings |= strings
            grew = False
            for module in self.library:
                for name, nodes in module.definitions.items():
                    if name in self.names:
                        for node in nodes:
                            grew |= self._join(module, node)
                for cls, method in module.methods:
                    if (
                        id(cls) in self._joined
                        and id(method) not in self._joined
                        and (
                            method.name in self.names
                            or method.name in self.strings
                            or self._overrides_stdlib(module, cls, method.name)
                        )
                    ):
                        grew |= self._join(module, method)
            if not grew:
                return

    def unreached(self) -> dict[str, str]:
        """``module.name`` -> ``path:line`` of every public def not joined."""
        return {
            f"{module.name}.{name}": f"{module.where}:{node.lineno}"
            for module in self.library
            for name, node in module.public()
            if id(node) not in self._joined
        }


def _library() -> list[_Module]:
    modules = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        modules.append(
            _Module(".".join(parts), path.read_text(encoding="utf-8"), path)
        )
    return modules


def _entry_files() -> list[Path]:
    files: set[Path] = set()
    for pattern in ENTRY_POINTS:
        files.update(ROOT.glob(pattern))
    return sorted(files)


@lru_cache(maxsize=1)
def _index() -> tuple[list[_Module], list[_Module]]:
    """The library's modules and the entry-point modules."""
    entry_paths = {path.resolve() for path in _entry_files()}
    entry = [
        _Module(path.stem, path.read_text(encoding="utf-8"), path)
        for path in sorted(entry_paths)
    ]
    library = [m for m in _library() if m.path.resolve() not in entry_paths]
    return library, entry


def gate_failures(
    library: list[_Module], entry: list[_Module], allowed: frozenset[str]
) -> tuple[dict[str, str], list[str]]:
    """Unreached public definitions that ``allowed`` does not cover, and
    the stale entries of ``allowed``."""
    flagged = {
        key: where
        for key, where in _Walk(library, entry, allowed).unreached().items()
        if key not in allowed
    }
    dead = _Walk(library, entry).unreached()
    return flagged, sorted(key for key in allowed if key not in dead)


@lru_cache(maxsize=1)
def _repo_gate() -> tuple[dict[str, str], list[str]]:
    return gate_failures(*_index(), frozenset(ALLOWED))


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
    dead, _ = _repo_gate()
    assert not dead, "unreached public definitions:\n" + "\n".join(
        f"  {key} ({where})" for key, where in sorted(dead.items())
    )


def test_allow_list_has_no_stale_entries() -> None:
    _, stale = _repo_gate()
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


# -- mutation checks: the walker on synthetic source ----------------------

_LIB = """
import logging


class Meter:
    rate = 2.0

    def __init__(self):
        self.value = 0.0

    def read(self):
        return self.value * self.rate


class Bridge(logging.Handler):
    def emit(self, record):
        pass
"""

_EXTRA = """

def helper():
    return 1


class Meter2(Meter):
    def extra(self):
        return helper()
"""

_MAIN = """
from lib import Bridge, Meter

Meter().read()
Bridge()
"""


def _gate(
    library: str, entry: str, allowed: tuple[str, ...] = ()
) -> tuple[dict[str, str], list[str]]:
    return gate_failures(
        [_Module("lib", library)], [_Module("main", entry)], frozenset(allowed)
    )


def test_mutation_clean_source_passes() -> None:
    # ``emit`` is never named, yet logging calls it: a stdlib override.
    assert _gate(_LIB, _MAIN) == ({}, [])


def test_mutation_uncalled_public_method_fails() -> None:
    library = _LIB.replace(
        "        return self.value * self.rate\n",
        "        return self.value * self.rate\n\n"
        "    def reset(self):\n        self.value = 0.0\n",
    )
    flagged, _ = _gate(library, _MAIN)
    assert set(flagged) == {"lib.Meter.reset"}


def test_mutation_a_dead_method_keeps_its_helpers_dead() -> None:
    flagged, _ = _gate(_LIB + _EXTRA, _MAIN + "Meter2()\n")
    assert set(flagged) == {"lib.Meter2.extra", "lib.helper"}


def test_mutation_stale_method_entry_fails() -> None:
    # Reached anyway, or no longer defined: either way the entry is stale.
    _, stale = _gate(_LIB, _MAIN, ("lib.Meter.read", "lib.Meter.gone"))
    assert stale == ["lib.Meter.gone", "lib.Meter.read"]
    # A live entry roots the method and its helpers.
    flagged, stale = _gate(_LIB + _EXTRA, _MAIN + "Meter2()\n",
                           ("lib.Meter2.extra",))
    assert (flagged, stale) == ({}, [])


def test_mutation_method_reached_by_identifier_string_passes() -> None:
    entry = _MAIN + 'getattr(Meter2(), "extra")()\n'
    assert _gate(_LIB + _EXTRA, entry) == ({}, [])
