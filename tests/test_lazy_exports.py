"""The lazy re-export tables (``repro._lazy``) cannot drift from the API.

A package that re-exports on first use keeps every public name: what
``__all__`` promises resolves, to the object the submodule defines, and is
then an ordinary attribute of the package.
"""

import importlib
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

SOURCE = Path(__file__).parent.parent / "src"

#: Every package whose ``__init__`` calls ``lazy_exports``.
CONVERTED = sorted(
    ".".join(path.parent.relative_to(SOURCE).parts)
    for path in (SOURCE / "repro").rglob("__init__.py")
    if "lazy_exports(" in path.read_text())


def test_the_converted_packages_are_found():
    assert {"repro.scenario", "repro.scenario.dsl", "repro.apps",
            "repro.netstack", "repro.telemetry"} <= set(CONVERTED)


@pytest.mark.parametrize("package_name", CONVERTED)
class TestLazyTable:
    def test_every_public_name_resolves_and_is_then_cached(self,
                                                           package_name):
        package = importlib.import_module(package_name)
        lazy = {name: submodule for submodule, names in package._LAZY.items()
                for name in names}
        assert set(lazy) <= set(package.__all__)
        assert set(package.__all__) <= set(dir(package))
        for name in package.__all__:
            value = getattr(package, name)
            assert vars(package)[name] is value
            if name in lazy:
                home = importlib.import_module(
                    f"{package_name}.{lazy[name]}")
                assert value is getattr(home, name)

    def test_an_unknown_name_is_an_attribute_error(self, package_name):
        package = importlib.import_module(package_name)
        with pytest.raises(AttributeError, match=package_name):
            package.no_such_name


def test_a_fresh_interpreter_star_imports_without_warnings():
    """``dir()`` lists the lazy names before any is loaded, ``import *``
    loads them all, and neither trips a DeprecationWarning."""
    code = """
import sys
import repro.scenario
assert set(repro.scenario.__all__) <= set(dir(repro.scenario))
assert "repro.scenario.dsl" not in sys.modules
from repro.scenario import *
assert load_scn is sys.modules["repro.scenario.dsl.format"].load_scn
assert Scenario is repro.scenario.Scenario
"""
    done = subprocess.run(
        [sys.executable, "-W", "error::DeprecationWarning", "-c", code],
        env=dict(os.environ, PYTHONPATH=str(SOURCE)), text=True, timeout=120,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert done.returncode == 0, done.stderr


def test_pool_and_fleet_records_still_pickle():
    """The records a campaign pool worker sends back cross a process
    boundary, so what ``repro.campaign`` exports must pickle."""
    from repro.campaign import Point, PointResult
    point = Point(campaign="c", index=0, params=(("rate", 1e6),), seed=1,
                  backend="kollaps", label="kollaps")
    result = PointResult(point=point, status="error", error="boom")
    assert pickle.loads(pickle.dumps(point)) == point
    assert pickle.loads(pickle.dumps(result)) == result
