"""Every module, name and knob is reached through the front door, or it
goes.

A module under ``src/repro`` that defines public names must have at
least one of them *used* — called, read, subclassed — by another
``src/repro`` module, an example or the benchmark ledger.  A module that
only its own tests reach is a side door: no ``.scn`` spelling,
experiment, example or CLI verb can run it, so it is either promoted to
something one of those reads or deleted.

Names are matched as names, wherever they were imported from.  An
import statement, ``__all__``, a ``_LAZY`` table or a docstring is not a
use: they are all either import machinery or strings.  A loaded ``Name``
or ``Attribute`` counts, and so does a constant string passed to
``getattr`` or ``hasattr``.

The same holds one level down, for every public function and class and
every public method or property of a public class: one that no caller
loads — its own module counts, tests do not; a method or property is
loaded only as an attribute or a ``getattr`` string, never as a bare
name, which would be some local of the same spelling — goes, or
:data:`NAMES_ALLOWED` names who reads it.  And for knobs: a defaulted
``__init__`` parameter of a public class, a defaulted parameter of a
workload helper, or an ``EngineConfig`` field, that no caller outside
its own module ever passes has one value in every run, and is a
constant.  It goes, or :data:`ALLOWED` names who reads it.
"""

import ast
import json
from pathlib import Path

ROOT = Path(__file__).parent.parent
PACKAGE = ROOT / "src" / "repro"


def callers(root: Path) -> list:
    """The files whose uses count: the package, the examples, the
    benchmark ledger."""
    return sorted([*(root / "src" / "repro").rglob("*.py"),
                   *(root / "examples").glob("*.py"),
                   *(root / "bench").glob("*.py")])


CALLERS = callers(ROOT)


def defined_names(tree: ast.Module) -> set:
    """The public names a module defines at its top level."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            names.update(target.id for target in targets
                         if isinstance(target, ast.Name))
    return {name for name in names if not name.startswith("_")}


def used_names(tree: ast.Module) -> tuple:
    """Every name a module reads, as ``(bare, attributes)``: the loaded
    bare names, and the loaded attributes plus the constant strings
    passed to ``getattr``/``hasattr``."""
    bare, attributes = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            bare.add(node.id)
        elif isinstance(node, ast.Attribute) \
                and isinstance(node.ctx, ast.Load):
            attributes.add(node.attr)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id in ("getattr", "hasattr") \
                and len(node.args) > 1 \
                and isinstance(node.args[1], ast.Constant) \
                and isinstance(node.args[1].value, str):
            attributes.add(node.args[1].value)
    return bare, attributes


def side_doors() -> list:
    """Modules (relative to ``repro``) none of whose public names any
    other caller uses."""
    trees = {path: ast.parse(path.read_text(), str(path))
             for path in CALLERS}
    uses = {path: set().union(*used_names(tree))
            for path, tree in trees.items()}
    found = []
    for path, tree in trees.items():
        if PACKAGE not in path.parents \
                or path.name in ("__init__.py", "__main__.py"):
            continue
        names = defined_names(tree)
        if names and not any(names & uses[other]
                             for other in uses if other != path):
            found.append(".".join(
                path.relative_to(PACKAGE).with_suffix("").parts))
    return sorted(found)


def test_every_module_is_used_outside_its_tests():
    doors = side_doors()
    assert not doors, f"only their own tests reach {doors}"


# --------------------------------------------------------------------------
# Names.
# --------------------------------------------------------------------------
#: Public names no caller loads, each with its reader.
NAMES_ALLOWED = {
    "core/engine.py::EmulationEngine.apply_event_online": "§6 "
    "interactivity; tests/test_extensions.py and tests/fluid_trajectories.py "
    "(fluid_trajectories.json) change a running emulation through it",
    "experiments/base.py::ExperimentResult.assert_all": "every "
    "benchmarks/test_*.py paper experiment asserts its checks through it",
    "telemetry/metrics.py::MetricsRegistry.delta_since": "benchmarks/"
    "test_engine_baseline.py reads counter deltas through it",
    "scenario/backends.py::register_backend": "tests substitute fake "
    "backends through it",
    "scenario/builder.py::Scenario.from_file": "a documented loader and a "
    "door of tests/test_cli.py::TestMalformedInputMatrix",
    "scenario/builder.py::Scenario.from_xml": "a documented loader "
    "(docs/api.md)",
    "scenario/dsl/format.py::load_scn": "a documented loader "
    "(docs/scenarios.md)",
    "scenario/dsl/format.py::dump_scn": "a documented writer "
    "(docs/scenarios.md)",
    "scenario/dsl/lint.py::lint_scenario": "documented lint of a builder "
    "(docs/api.md, docs/scenarios.md)",
    "scenario/builder.py::node_join": "the builder's spelling of .scn's "
    "join action",
    "scenario/builder.py::node_leave": "the builder's spelling of .scn's "
    "leave action",
    "netstack/plane.py::DataPlane": "the protocol both data planes "
    "implement",
    "sim/simulator.py::Simulator.step": "tests/test_sim_model.py drives "
    "the kernel and its sorted-list model one event at a time through it",
    "sim/simulator.py::Simulator.pending": "tests/test_sim_model.py, "
    "tests/test_sim.py and tests/test_metadata.py read the live queue "
    "length through it",
}


def public_names(tree: ast.Module) -> dict:
    """``"name"`` or ``"Class.member"`` -> the name a caller loads, for
    every public top-level function and class and every public method or
    property of a public class."""
    found = {}
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)) or node.name.startswith("_"):
            continue
        found[node.name] = node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                        and not item.name.startswith("_"):
                    found[f"{node.name}.{item.name}"] = item.name
    return found


def unread_names(root: Path = ROOT) -> list:
    """``"module/path.py::name"`` for every public name under
    ``root/src/repro`` that no caller loads."""
    package = root / "src" / "repro"
    trees = {path: ast.parse(path.read_text(), str(path))
             for path in callers(root)}
    bare, attributes = (set().union(*uses)
                        for uses in zip(*map(used_names, trees.values())))
    # A method or property is read through its object; a bare name that
    # matches it is some local of the same spelling.
    loaded = {False: bare | attributes, True: attributes}
    return sorted(
        f"{path.relative_to(package).as_posix()}::{name}"
        for path, tree in trees.items() if package in path.parents
        for name, member in public_names(tree).items()
        if member not in loaded["." in name])


def test_every_public_name_is_read_outside_its_tests():
    unread = [name for name in unread_names() if name not in NAMES_ALLOWED]
    assert not unread, f"only their own tests read {unread}"


def test_every_allowed_name_exists_and_is_unread():
    """An entry goes when its name does, or once a caller reads it."""
    stale = sorted(set(NAMES_ALLOWED) - set(unread_names()))
    assert not stale, f"NAMES_ALLOWED names gone or read names: {stale}"


def test_the_name_audit_flags_what_only_a_test_reads(tmp_path):
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (package / "shapes.py").write_text(
        "class Square:\n"
        "    def area(self):\n        return 4\n"
        "    def unread(self):\n        return 0\n"
        "    def tested(self):\n        return 1\n"
        "    def looked_up(self):\n        return 2\n"
        "    def _private(self):\n        return 3\n"
        "\n\n"
        "def report(square):\n"
        "    return square.area(), getattr(square, 'looked_up')()\n")
    (tmp_path / "examples").mkdir()
    (tmp_path / "examples" / "demo.py").write_text(
        "from repro.shapes import Square, report\nreport(Square())\n")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_shapes.py").write_text(
        "from repro.shapes import Square\n"
        "def test_tested():\n    assert Square().tested() == 1\n")
    assert unread_names(tmp_path) == ["shapes.py::Square.tested",
                                      "shapes.py::Square.unread"]


def test_a_local_of_the_same_name_does_not_read_a_method(tmp_path):
    """``Simulator.step`` and ``Simulator.pending`` once passed on a
    ``step`` local in ``scenario/thunderstorm.py`` and a ``pending`` one in
    ``campaign/executor.py``: a method is read through its object."""
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (package / "kernel.py").write_text(
        "class Kernel:\n"
        "    def step(self):\n        return True\n"
        "    def pending(self):\n        return 0\n"
        "    def run(self):\n        return 1\n")
    storm = ("from repro.kernel import Kernel\n\n\n"
             "def script(pending):\n"
             "    step = Kernel().run()\n    return step, pending\n")
    (package / "storm.py").write_text(storm)
    (tmp_path / "examples").mkdir()
    (tmp_path / "examples" / "demo.py").write_text(
        "from repro.storm import script\nscript(0)\n")
    bare, attributes = used_names(ast.parse(storm))
    assert {"step", "pending"} <= bare - attributes     # the old rule's
    assert unread_names(tmp_path) == ["kernel.py::Kernel.pending",
                                      "kernel.py::Kernel.step"]


# --------------------------------------------------------------------------
# Knobs.
# --------------------------------------------------------------------------
#: Where knobs are audited, relative to ``repro``.
KNOB_SCOPE = ("apps", "baselines", "campaign", "cluster", "core",
              "metadata", "netstack", "tc", "scenario/backends.py",
              "scenario/workloads")
CONFIG = "EngineConfig"
#: Whose public functions' defaulted parameters are knobs too: the
#: workload helpers (``flow``, ``iperf``, ...), which an ``examples/*.scn``
#: workload also sets, by the key of the field the parameter feeds.  Each
#: kind's module holds its spec class and its helpers.
HELPERS = sorted((PACKAGE / "scenario" / "workloads").glob("*.py"))

#: Knobs no caller outside their module passes, each with its reader.
ALLOWED = {
    "EngineConfig.loop_period": "§6 names the loop period as the bound on "
    "accuracy; tests/test_shortflow_limitation.py sweeps it",
    "EngineConfig.fluid_dt": "the fluid integrator's step; "
    "tests/test_netstack.py times packet sends against fluid steps",
    "KollapsDataPlane.container_network_delay": "the overlay's 35 us; "
    "tests/test_netstack.py::TestKollapsDataPlane sets it to tell the "
    "two delays apart",
    "KollapsDataPlane.physical_network_delay": "the 80 us cluster hop; "
    "tests/test_netstack.py::TestKollapsDataPlane sets it to tell the "
    "two delays apart",
    "PacketLink.buffer_bits": "the drop-tail queue; tests/test_netstack.py "
    "shrinks it to make a link drop",
    "HtbQdisc.default_rate": "tests/test_tc.py::test_qdisc_default_rate_"
    "only_when_no_rate_is_given reads it",
    "FluidFlow.rtt": "the RTT before the first step measures one; "
    "tests/test_fluid.py holds Reno's and Cubic's window rules at a "
    "known RTT",
    "Pinger.size_bits": "tests/test_contention.py and "
    "tests/fluid_trajectories.py (fluid_trajectories.json) send "
    "MTU-sized probes",
    "HttpServer.response_bits": "tests/test_contention.py::"
    "TestCrossPlaneContention serves 512 KB objects",
    "MemtierClient.set_fraction": "tests/test_apps.py (TestKvStore, "
    "TestMemtierClient) drives all-set and mixed loads",
    "MemtierClient.keyspace": "tests/test_apps.py::TestMemtierClient "
    "checks the key draw over several keyspaces",
    "YcsbClient.read_fraction": "tests/test_apps.py::TestCassandra runs "
    "all-read and all-update loads",
    "YcsbClient.keyspace": "tests/test_apps.py::TestCassandra validates "
    "it",
    "CassandraCluster.replication_factor": "Figure 10's RF 2 is the "
    "default; tests/test_apps.py::TestCassandra checks the quorum rules",
    "CassandraCluster.write_consistency": "Figure 10's W 2 is the "
    "default; tests/test_apps.py::TestCassandra checks the quorum rules",
    "CassandraCluster.read_consistency": "Figure 10's R 1 is the default; "
    "tests/test_apps.py::TestCassandra checks the quorum rules",
    "MininetBackend.element_budget": "Table 4's budget is the default; "
    "tests/test_backends.py shrinks it to refuse a small topology",
    "MaxinetBackend.workers": "table4's BACKENDS options set it, through "
    "a dict this audit does not follow",
}


def _in_knob_scope(path: Path) -> bool:
    relative = path.relative_to(PACKAGE).as_posix()
    return any(relative == scope or relative.startswith(scope + "/")
               for scope in KNOB_SCOPE)


def _defaulted(name: str, args: ast.arguments, path: Path,
               skip: int = 0) -> dict:
    """``"name.param"`` -> ``(path, positional index or None)`` for each
    defaulted parameter; ``skip`` leading parameters are never passed."""
    found = {}
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    for index in range(first, len(positional)):
        found[f"{name}.{positional[index].arg}"] = (path, index - skip)
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            found[f"{name}.{arg.arg}"] = (path, None)
    return found


def knobs() -> dict:
    """``"Class.param"`` or ``"helper.param"`` -> ``(module path,
    positional index or None)``."""
    found = {}
    for path in PACKAGE.rglob("*.py"):
        if not _in_knob_scope(path):
            continue
        for node in ast.parse(path.read_text(), str(path)).body:
            if getattr(node, "name", "_").startswith("_"):
                continue
            if isinstance(node, ast.FunctionDef) and path in HELPERS:
                found.update(_defaulted(node.name, node.args, path))
            if not isinstance(node, ast.ClassDef):
                continue
            for item in node.body:
                if node.name == CONFIG and isinstance(item, ast.AnnAssign):
                    found[f"{CONFIG}.{item.target.id}"] = (path, None)
                if isinstance(item, ast.FunctionDef) \
                        and item.name == "__init__":
                    # self is not passed
                    found.update(_defaulted(node.name, item.args, path, 1))
    return found


def helper_fields() -> dict:
    """``"helper.param"`` -> ``(kind, field)``: the workload kind a helper
    returns and the field of it the parameter feeds, which is the key a
    ``.scn`` workload of that kind sets it with."""
    trees = [ast.parse(path.read_text(), str(path)) for path in HELPERS]
    kinds = {node.name: item.value.value for tree in trees
             for node in tree.body
             if isinstance(node, ast.ClassDef) for item in node.body
             if isinstance(item, ast.Assign)
             and [getattr(target, "id", None) for target in item.targets]
             == ["kind"]}
    found = {}
    for node in (node for tree in trees for node in tree.body):
        if not isinstance(node, ast.FunctionDef):
            continue
        params = {arg.arg for arg in node.args.args + node.args.kwonlyargs}
        for ret in ast.walk(node):
            if not (isinstance(ret, ast.Return)
                    and isinstance(ret.value, ast.Call)):
                continue
            for keyword in ret.value.keywords:
                for fed in ast.walk(keyword.value):
                    if isinstance(fed, ast.Name) and fed.id in params:
                        found[f"{node.name}.{fed.id}"] = (
                            kinds.get(_callee(ret.value)), keyword.arg)
    return found


def _callee(node: ast.Call):
    func = node.func
    return func.id if isinstance(func, ast.Name) \
        else func.attr if isinstance(func, ast.Attribute) else None


def _passed(node: ast.Call, cls: str) -> set:
    """The ``"Class.param"`` names a call passes by keyword, and
    ``(cls, index)`` for each positional argument."""
    passed = {f"{cls}.{keyword.arg}" for keyword in node.keywords
              if keyword.arg is not None}
    for index, arg in enumerate(node.args):
        if isinstance(arg, ast.Starred):
            break
        passed.add((cls, index))
    return passed


def knob_uses(tree: ast.Module, doors: dict) -> set:
    """What one caller passes: to a class called by name, to a base class
    through ``super().__init__``, to ``EngineConfig`` through
    ``deploy()``, and to a backend through a campaign's ``backend()``."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            bases = [base.id if isinstance(base, ast.Name) else
                     getattr(base, "attr", None) for base in node.bases]
            for call in ast.walk(node):
                if isinstance(call, ast.Call) \
                        and _callee(call) == "__init__" \
                        and isinstance(call.func.value, ast.Call) \
                        and _callee(call.func.value) == "super":
                    for base in bases:
                        used |= _passed(call, base)
        elif isinstance(node, ast.Call):
            for cls in doors.get(_callee(node), (_callee(node),)):
                used |= _passed(node, cls)
    return used


def unused_knobs() -> list:
    """Knobs no caller outside their module passes."""
    found = knobs()
    backends = sorted({name.split(".")[0] for name, (path, _) in found.items()
                       if path.name == "backends.py"})
    doors = {"deploy": (CONFIG,), "backend": backends}
    callers = {}                        # a use -> the files making it
    for path in CALLERS:
        for use in knob_uses(ast.parse(path.read_text(), str(path)), doors):
            callers.setdefault(use, set()).add(path)
    fields = helper_fields()
    for document in (ROOT / "examples").glob("*.scn"):
        spec = json.loads(document.read_text())
        for key in spec.get("deploy", {}):
            callers.setdefault(f"{CONFIG}.{key}", set()).add(document)
        for workload in spec.get("workloads", ()):
            for name, (kind, field) in fields.items():
                if workload.get("kind") == kind and field in workload:
                    callers.setdefault(name, set()).add(document)
    return sorted(
        name for name, (home, index) in found.items()
        if not (callers.get(name, set())
                | callers.get((name.split(".")[0], index), set())) - {home})


def test_every_knob_is_passed_outside_its_module():
    unused = [name for name in unused_knobs() if name not in ALLOWED]
    assert not unused, f"nothing outside their module sets {unused}"


def test_every_allowed_knob_exists_and_is_unused():
    """An entry goes when its knob does, or once a caller passes it."""
    stale = sorted(set(ALLOWED) - set(unused_knobs()))
    assert not stale, f"ALLOWED names knobs that are gone or used: {stale}"


# --------------------------------------------------------------------------
# Imports.
# --------------------------------------------------------------------------
def _annotations(tree: ast.Module):
    """Every annotation expression in a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.returns is not None:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def read_names(tree: ast.Module) -> set:
    """The bare names a module loads, string annotations included."""
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                read |= read_names(ast.parse(node.value, mode="eval"))
    return read


def exported(tree: ast.Module) -> set:
    """The names ``__all__`` lists."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(package: Path = PACKAGE) -> list:
    """``"module/path.py: name"`` for every name a top-level import binds
    that its module never reads.  A package ``__init__`` re-exports what
    it imports, and a name in ``__all__`` is exported: neither counts."""
    found = []
    for path in sorted(package.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        read = read_names(tree) | exported(tree)
        for node in tree.body:
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or \
                    getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                name = (alias.asname or alias.name).partition(".")[0]
                if name not in read:
                    found.append(f"{path.relative_to(package).as_posix()}: "
                                 f"{name}")
    return found


def test_every_import_is_read():
    unused = unused_imports()
    assert not unused, f"imported and never read: {unused}"


def test_the_import_audit_flags_what_nothing_reads(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "__init__.py").write_text(
        "from pkg.shapes import Square\n")
    (tmp_path / "pkg" / "shapes.py").write_text(
        "from __future__ import annotations\n"
        "import os, random\n"
        "from typing import Dict, List, Tuple\n"
        "from pkg.other import Public\n"
        "__all__ = ['Square', 'Public']\n\n"
        "def square(side: 'Dict[str, int]') -> List[int]:\n"
        "    return os.sep\n")
    assert unused_imports(tmp_path / "pkg") == ["shapes.py: random",
                                                 "shapes.py: Tuple"]
