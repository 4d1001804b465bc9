"""Check the ledger workloads' counts against ``ledger_counts.json``.

Usage (from the repository root)::

    python benchmarks/ledger_counts.py [TABLE.json]

Runs ``python3 -m bench --workload W --seed 1 --seconds 0 --trace 1``
once for every workload the table names, then checks that the run says
``"correct": true``, that every ``exact`` count matches and that no count
exceeds its ``ceiling``.  Where a workload has ``modules``, a fresh
interpreter imports what the workload loads, and the ``repro`` modules it
then holds may not exceed ``modules.ceiling``; it then runs the workload
at quick scale, after which it may hold no more ``repro`` modules than
``modules.run_ceiling`` and no module ``modules.absent`` names.  Prints
each workload's checked counts and exits non-zero naming every count that
moved.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TABLE = Path(__file__).with_name("ledger_counts.json")


def measure(workload: str) -> dict:
    """The contract run's result document for one workload."""
    out = subprocess.run(
        [sys.executable, "-m", "bench", "--workload", workload, "--seed", "1",
         "--seconds", "0", "--trace", "1"],
        cwd=ROOT, check=True, capture_output=True, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


# What a workload's import list loads, then what a quick-scale run of it
# holds, printed by a fresh interpreter as the last line.
_LOADED = ("import contextlib, json, sys, tempfile\n"
           "from bench.workloads import SCALES, WORKLOADS\n"
           "workload = WORKLOADS[sys.argv[1]]\n"
           "workload.load()\n"
           "loaded = sorted(sys.modules)\n"
           "with tempfile.TemporaryDirectory() as workdir:\n"
           "    workload.run(1, SCALES['quick'][workload.name],\n"
           "                 lambda name: contextlib.nullcontext(), workdir)()\n"
           "print(json.dumps([loaded, sorted(sys.modules)]))\n")


def loaded(workload: str) -> tuple:
    """Every module a fresh interpreter holds once the workload loaded,
    and once it also ran at quick scale."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)]))
    out = subprocess.run([sys.executable, "-c", _LOADED, workload],
                         cwd=ROOT, env=env, check=True, capture_output=True,
                         text=True).stdout
    imported, ran = json.loads(out.strip().splitlines()[-1])
    return imported, ran


def _repro(modules: list) -> list:
    return [name for name in modules if name.partition(".")[0] == "repro"]


def check(workload: str, rows: dict, result: dict, modules: tuple) -> list:
    """What moved, one line per count; ``modules`` is :func:`loaded`'s
    answer."""
    counts = {name: doc["value"] for name, doc in result["metrics"].items()}
    moved = [] if result["correct"] is True else [f"{workload}: not correct"]
    for name, value in rows.get("exact", {}).items():
        if counts.get(name) != value:
            moved.append(f"{workload}: {name} = {counts.get(name)}, "
                         f"expected {value}")
    for name, ceiling in rows.get("ceiling", {}).items():
        if name not in counts or counts[name] > ceiling:
            moved.append(f"{workload}: {name} = {counts.get(name)}, "
                         f"ceiling {ceiling}")
    checked = {name: counts.get(name) for name in
               [*rows.get("exact", {}), *rows.get("ceiling", {})]}
    if "modules" in rows:
        bound = rows["modules"]
        imported, ran = modules
        for what, names, ceiling in (
                ("loaded", _repro(imported), bound["ceiling"]),
                ("held after a quick run", _repro(ran),
                 bound["run_ceiling"])):
            if len(names) > ceiling:
                moved.append(f"{workload}: {len(names)} repro modules "
                             f"{what}, ceiling {ceiling}: {names}")
        moved.extend(f"{workload}: loads {name}"
                     for name in bound.get("absent", ()) if name in ran)
        checked["modules"] = len(_repro(imported))
        checked["run_modules"] = len(_repro(ran))
    print(workload, checked)
    return moved


def main(argv: list) -> int:
    table = json.loads(Path(argv[0] if argv else TABLE).read_text())
    moved = [line for workload, rows in table["workloads"].items()
             for line in check(workload, rows, measure(workload),
                               loaded(workload))]
    for line in moved:
        print(f"MOVED {line}", file=sys.stderr)
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
