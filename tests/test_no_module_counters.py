"""A run's output depends on its seed and its inputs, not on what the
process ran before: no module under ``src/repro`` keeps a process-wide
``itertools.count()``.  A counter bound at module (or class) level numbers
across runs — a pool worker's second campaign point would see other
packet kinds, ids or sort keys than a fresh process — so a counter
belongs to the object whose run it numbers."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).parent.parent / "src" / "repro"


def _is_count(call: ast.Call) -> bool:
    function = call.func
    if isinstance(function, ast.Attribute):
        return (function.attr == "count"
                and isinstance(function.value, ast.Name)
                and function.value.id == "itertools")
    return isinstance(function, ast.Name) and function.id == "count"


def _outside_functions(node: ast.AST):
    """``node`` and its descendants, not entering a function or lambda
    (their bodies run per call, not once per process)."""
    yield node
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.Lambda)):
            yield from _outside_functions(child)


def import_time_counters(tree: ast.AST):
    """Lines of the ``itertools.count()`` calls that run when ``tree``'s
    module is imported."""
    return [node.lineno for node in _outside_functions(tree)
            if isinstance(node, ast.Call) and _is_count(node)]


def test_no_module_binds_a_process_wide_counter():
    found = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        lines = import_time_counters(ast.parse(path.read_text(), str(path)))
        if lines:
            found[path.relative_to(PACKAGE).as_posix()] = lines
    assert found == {}


def test_the_check_sees_a_module_level_counter():
    source = ("import itertools\n"
              "from itertools import count\n"
              "_ids = itertools.count()\n"
              "class Numbered:\n"
              "    serial = count(1)\n"
              "    def __init__(self):\n"
              "        self.ids = itertools.count()\n")
    assert import_time_counters(ast.parse(source)) == [3, 5]
