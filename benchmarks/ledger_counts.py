"""Check the ledger workloads' counts against ``ledger_counts.json``.

Usage (from the repository root)::

    python benchmarks/ledger_counts.py [TABLE.json]

Runs ``python3 -m bench --workload W --seed 1 --seconds 0 --trace 1``
once for every workload the table names, then checks that the run says
``"correct": true``, that every ``exact`` count matches and that no count
exceeds its ``ceiling``.  Prints each workload's checked counts and exits
non-zero naming every count that moved.
"""

from __future__ import annotations

import json
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


def check(workload: str, rows: dict, result: dict) -> list:
    """What moved, one line per count."""
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
    print(workload, {name: counts.get(name) for name in
                     [*rows.get("exact", {}), *rows.get("ceiling", {})]})
    return moved


def main(argv: list) -> int:
    table = json.loads(Path(argv[0] if argv else TABLE).read_text())
    moved = [line for workload, rows in table["workloads"].items()
             for line in check(workload, rows, measure(workload))]
    for line in moved:
        print(f"MOVED {line}", file=sys.stderr)
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
