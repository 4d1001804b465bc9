"""Every module is reached through the front door, or it goes.

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
"""

import ast
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
