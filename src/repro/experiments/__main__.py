"""``python -m repro.experiments`` — regenerate EXPERIMENTS.md.

Usage::

    python -m repro.experiments                    # all, full fidelity
    python -m repro.experiments --quick            # shorter runs
    python -m repro.experiments --only fig8 table2
    python -m repro.experiments -o /tmp/report.md
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

from repro.experiments.base import (
    format_table,
    registered,
    render_markdown,
    run_experiments,
)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Reproduce the paper's tables and figures and write "
                    "the EXPERIMENTS.md report.")
    parser.add_argument("--only", nargs="+", metavar="EXP",
                        help="run only these experiment ids")
    parser.add_argument("--quick", action="store_true",
                        help="shorter runs (smoke-test fidelity)")
    parser.add_argument("--list", action="store_true",
                        help="list experiment ids and exit")
    parser.add_argument("-o", "--output", default="EXPERIMENTS.md",
                        help="report path (default: %(default)s); "
                             "'-' prints to stdout")
    arguments = parser.parse_args(argv)

    if arguments.list:
        for exp_id in registered():
            print(exp_id)
        return 0

    def progress(exp_id: str) -> None:
        print(f"[{time.strftime('%H:%M:%S')}] running {exp_id} ...",
              file=sys.stderr, flush=True)

    results = run_experiments(arguments.only, quick=arguments.quick,
                              progress=progress)
    for result in results:
        print(format_table(result), file=sys.stderr)
        print(file=sys.stderr)

    report = render_markdown(results)
    if arguments.output == "-":
        print(report)
    else:
        with open(arguments.output, "w", encoding="utf-8") as handle:
            handle.write(report)
        print(f"wrote {arguments.output}", file=sys.stderr)

    failed = [result for result in results if not result.passed()]
    for result in failed:
        for check in result.failures():
            print(f"FAILED {result.exp_id}: {check.description}",
                  file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
