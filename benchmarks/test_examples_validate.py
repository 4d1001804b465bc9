"""Smoke-check: every example compiles, and runs.

Each ``examples/*.py`` exposes a module-level ``SCENARIO`` (a
:class:`repro.scenario.Scenario` builder), so ``python -m repro.cli
validate examples/foo.py`` can compile it without running the emulation;
:func:`test_example_runs` then runs each one as a script, from an empty
working directory.  Examples cannot silently rot when the topology, units
or scenario layers move underneath them.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

import pytest

from repro.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
EXAMPLES_DIR = ROOT / "examples"
SRC = ROOT / "src"
EXAMPLES = sorted(EXAMPLES_DIR.glob("*.py"))
SCN_SIBLINGS = sorted(EXAMPLES_DIR.glob("*.scn"))


def test_examples_exist():
    assert len(EXAMPLES) >= 8, "the example gallery shrank unexpectedly"
    assert len(SCN_SIBLINGS) >= 3, "the .scn sibling gallery shrank"


@pytest.mark.parametrize("example", EXAMPLES, ids=lambda path: path.stem)
def test_cli_validate_accepts_example(example, capsys):
    assert main(["validate", str(example)]) == 0
    out = capsys.readouterr().out
    assert "topology" in out
    assert "dynamic events:" in out


@pytest.mark.parametrize("sibling", SCN_SIBLINGS,
                         ids=lambda path: path.stem)
def test_cli_validate_accepts_scn_sibling(sibling, capsys):
    assert main(["validate", str(sibling)]) == 0
    assert "topology" in capsys.readouterr().out


@pytest.mark.parametrize("sibling", SCN_SIBLINGS,
                         ids=lambda path: path.stem)
def test_scn_sibling_is_fresh_and_recompiles_identically(sibling, capsys):
    """The checked-in .scn must be the current canonical export of its
    .py sibling (byte-fresh) and compile to the same scenario."""
    from repro.scenario import Scenario, dumps_scn

    source = sibling.with_suffix(".py")
    compiled = Scenario.from_file(str(source)).compile()
    assert dumps_scn(compiled) == sibling.read_text(), \
        f"stale sibling: re-run `repro scenario export {source} " \
        f"-o {sibling}`"
    reloaded = Scenario.from_file(str(sibling)).compile()
    assert dumps_scn(reloaded) == sibling.read_text()
    assert reloaded.path_table() == compiled.path_table()


@pytest.mark.parametrize("example", EXAMPLES, ids=lambda path: path.stem)
def test_example_runs(example, tmp_path):
    """``python examples/<name>.py`` runs its ``main()`` to the end: the
    asserts inside each example are its self-check."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    finished = subprocess.run([sys.executable, str(example)], cwd=tmp_path,
                              env=env, capture_output=True, text=True,
                              timeout=300)
    assert finished.returncode == 0, finished.stderr
    assert finished.stdout
