"""``setup.py``'s contract: ``src/`` runs on the standard library alone,
and every package under it is one ``find_packages`` sees."""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).parent.parent / "src" / "repro"

# An input format, not a subsystem: ``_parse_scn_text`` tries ``.scn``
# text that is not JSON as YAML when a parser happens to be installed,
# and refuses it with a clean error when none is (``except ImportError``).
ALLOWED = {("scenario/dsl/format.py", "yaml")}


def third_party_imports():
    """(file, module) of every import under ``src/repro`` — at any depth,
    lazy ones included — that is neither the standard library nor
    ``repro`` itself."""
    found = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules = [node.module]      # level > 0: inside the package
            else:
                continue
            for module in modules:
                top = module.partition(".")[0]
                if top != "repro" and top not in sys.stdlib_module_names:
                    found.add((path.relative_to(PACKAGE).as_posix(), top))
    return found


def test_source_imports_only_the_standard_library():
    assert third_party_imports() == ALLOWED


def test_setup_finds_every_package():
    """A directory without ``__init__.py`` — ``src/repro`` itself was one —
    is silently left out of ``pip install .``."""
    find_packages = pytest.importorskip("setuptools").find_packages
    holding_an_init = {
        ".".join(path.parent.relative_to(PACKAGE.parent).parts)
        for path in PACKAGE.rglob("__init__.py")}
    assert "repro" in holding_an_init
    assert set(find_packages(where=str(PACKAGE.parent))) == holding_an_init
