"""The import contract: a process loads the modules it uses.

Every ``repro`` CLI call, campaign pool worker and ledger child is a
fresh interpreter, and with no bytecode cache an imported module
is compiled from source — cold start is proportional to the lines on the
import path (docs/performance.md, "Cold start").  Each case below runs in
its own subprocess and lists what ``sys.modules`` held at the end; a new
top-level import of the toolbox fails here instead of costing every
process 10–50 ms.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent

# Never needed to import the front door, print help, validate a file or
# run one ping on the Kollaps backend.  A name covers its submodules.
TOOLBOX = (
    "repro.scenario.dsl.fuzz", "repro.scenario.dsl.differential",
    "repro.scenario.dsl.diff", "repro.telemetry.export",
    "repro.netstack.fullnet", "repro.baselines", "repro.experiments",
    "repro.dashboard", "repro.orchestration",
)
# `validate` *is* the linter; nothing else is.
LINTER = ("repro.scenario.dsl.lint",)
# The THUNDERSTORM compiler loads only for a description that carries
# scripts; the linter catches its errors as TopologyErrors.
SCRIPTS = ("repro.scenario.thunderstorm",)

PING_RUN = """
from repro.scenario import Scenario, ping
run = (Scenario.build("pair").service("a").service("b").bridges("s")
       .link("a", "s", latency="5ms", up="10Mbps")
       .link("s", "b", latency="5ms", up="10Mbps")
       .workload(ping("a", "b", count=3))
       .deploy(machines=1, seed=1).compile().run({backend}))
assert run["ping:a->b"].received == 3
"""
# A bare-metal run builds the full-state testbed and no other comparator.
OTHER_COMPARATORS = ("repro.baselines.mininet", "repro.baselines.maxinet",
                     "repro.baselines.trickle")

CLI = """
from repro.cli import main
try:
    status = main({argv!r})
except SystemExit as exit:          # argparse leaves --help this way
    status = exit.code
assert not status, status
"""

CASES = {
    "import-scenario": ("import repro.scenario", TOOLBOX + LINTER + SCRIPTS),
    "cli-help": (CLI.format(argv=["--help"]), TOOLBOX + LINTER + SCRIPTS
                 + ("repro.scenario", "repro.telemetry")),
    "cli-validate": (CLI.format(argv=["validate",
                                      "examples/quickstart.scn"]),
                     TOOLBOX + SCRIPTS),
    "kollaps-ping-run": (PING_RUN.format(backend=""),
                         TOOLBOX + LINTER + SCRIPTS),
    "baremetal-ping-run": (
        PING_RUN.format(backend="backend='baremetal'"),
        tuple(name for name in TOOLBOX if not name.startswith(
            ("repro.netstack.fullnet", "repro.baselines")))
        + LINTER + SCRIPTS + OTHER_COMPARATORS),
}

LIST_MODULES = """
import json, sys
print(json.dumps(sorted(name for name in sys.modules
                        if name.partition(".")[0] == "repro")))
"""


def loaded_modules(code: str) -> list:
    """The ``repro`` modules a fresh interpreter holds after *code*."""
    environment = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    environment.pop("REPRO_TRACE", None)
    done = subprocess.run([sys.executable, "-c", code + LIST_MODULES],
                          cwd=ROOT, env=environment, text=True, timeout=120,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("case", CASES)
def test_a_process_loads_the_modules_it_uses(case):
    code, forbidden = CASES[case]
    modules = loaded_modules(code)
    assert "repro.units" in modules     # the list is real, not empty
    unused = [name for name in modules
              if name.startswith(tuple(forbidden))
              or (name.startswith("repro.apps.")
                  and name != "repro.apps.ping")]
    assert not unused, f"{case} loaded {unused}"



#: Every module under ``src/repro``, as ``import`` names it.
MODULES = sorted(
    ".".join(path.with_suffix("").relative_to(ROOT / "src").parts
             ).removesuffix(".__init__")
    for path in (ROOT / "src" / "repro").rglob("*.py"))


@pytest.mark.parametrize("module", MODULES)
def test_every_module_imports_in_a_fresh_interpreter(module):
    """No import cycle hides behind the order a test run loads modules in:
    each one imports first, on its own."""
    loaded_modules(f"import {module}\n")
