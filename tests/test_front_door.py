"""Every module and every knob is reached through the front door, or it
goes.

A module under ``src/repro`` that defines public names must have at
least one of them *used* — called, read, subclassed — by another
``src/repro`` module, an example or the benchmark ledger.  A module that
only its own tests reach is a side door: no ``.scn`` spelling,
experiment, example or CLI verb can run it, so it is either promoted to
something one of those reads or deleted.

Names are matched as names, wherever they were imported from.  An
import statement, ``__all__``, a ``_LAZY`` table or a docstring is not a
use: they are all either import machinery or strings, and only a loaded
``Name`` or ``Attribute`` counts.

The same holds one level down, for knobs: a defaulted ``__init__``
parameter of a public class, or an ``EngineConfig`` field, that no caller
outside its own module ever passes has one value in every run, and is a
constant.  It goes, or :data:`ALLOWED` names who reads it.
"""

import ast
import json
from pathlib import Path

ROOT = Path(__file__).parent.parent
PACKAGE = ROOT / "src" / "repro"
CALLERS = sorted([*PACKAGE.rglob("*.py"), *(ROOT / "examples").glob("*.py"),
                  *(ROOT / "bench").glob("*.py")])


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


def used_names(tree: ast.Module) -> set:
    """Every name a module reads, as a bare name or an attribute."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute) \
                and isinstance(node.ctx, ast.Load):
            used.add(node.attr)
    return used


def side_doors() -> list:
    """Modules (relative to ``repro``) none of whose public names any
    other caller uses."""
    trees = {path: ast.parse(path.read_text(), str(path))
             for path in CALLERS}
    uses = {path: used_names(tree) for path, tree in trees.items()}
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
# Knobs.
# --------------------------------------------------------------------------
#: Where knobs are audited, relative to ``repro``.
KNOB_SCOPE = ("apps", "baselines", "campaign", "cluster", "core",
              "metadata", "netstack", "tc", "scenario/backends.py")
CONFIG = "EngineConfig"

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
    "UdpBlaster.stop": "tests/test_datacenter_udp.py stops a stream "
    "mid-run",
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


def knobs() -> dict:
    """``"Class.param"`` -> ``(module path, positional index or None)``."""
    found = {}
    for path in PACKAGE.rglob("*.py"):
        if not _in_knob_scope(path):
            continue
        for node in ast.parse(path.read_text(), str(path)).body:
            if not isinstance(node, ast.ClassDef) \
                    or node.name.startswith("_"):
                continue
            for item in node.body:
                if node.name == CONFIG and isinstance(item, ast.AnnAssign):
                    found[f"{CONFIG}.{item.target.id}"] = (path, None)
                if not (isinstance(item, ast.FunctionDef)
                        and item.name == "__init__"):
                    continue
                args = item.args
                positional = args.posonlyargs + args.args
                first = len(positional) - len(args.defaults)
                for index in range(first, len(positional)):
                    found[f"{node.name}.{positional[index].arg}"] = \
                        (path, index - 1)       # self is not passed
                for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None:
                        found[f"{node.name}.{arg.arg}"] = (path, None)
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
    for document in (ROOT / "examples").glob("*.scn"):
        for key in json.loads(document.read_text()).get("deploy", {}):
            callers.setdefault(f"{CONFIG}.{key}", set()).add(document)
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
