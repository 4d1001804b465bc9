"""Shared helpers for the reproduction benchmarks.

Every benchmark regenerates one table or figure of the paper: it runs the
experiment inside the ``benchmark`` fixture (so ``pytest benchmarks/
--benchmark-only`` times the harness) and prints the same rows/series the
paper reports, annotated with the paper's own numbers where they exist.
Assertions check the *shape* — who wins, by roughly what factor, where the
crossovers fall — not absolute values, since the substrate is a simulator
rather than the authors' testbed.
"""

from __future__ import annotations

import os
import re
import sys
from dataclasses import replace
from pathlib import Path
from typing import Iterable, List, Sequence

GOLDEN_ROWS = Path(__file__).parent.parent / "tests" / "golden" / "experiments"
# ablation-precompute's three wall-clock rows differ run to run; every
# golden comparison (and CI's diff of the quick report) masks them.
_WALL_CLOCK_ROW = re.compile(
    r"^(\| (?:offline pre-computation|runtime cost per event|"
    r"online collapse per event)[^|]*\|) [0-9.]+ ms \|$", re.M)


def print_table(title: str, headers: Sequence[str],
                rows: Iterable[Sequence[object]]) -> None:
    """Render one experiment's output as an aligned text table."""
    materialized: List[List[str]] = [[str(cell) for cell in row]
                                     for row in rows]
    widths = [len(header) for header in headers]
    for row in materialized:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    line = "  ".join(header.ljust(width)
                     for header, width in zip(headers, widths))
    print(f"\n=== {title} ===", file=sys.stderr)
    print(line, file=sys.stderr)
    print("-" * len(line), file=sys.stderr)
    for row in materialized:
        print("  ".join(cell.ljust(width)
                        for cell, width in zip(row, widths)), file=sys.stderr)


def run_once(benchmark, function):
    """Execute ``function`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(function, iterations=1, rounds=1)


def print_result(result) -> None:
    """Render an :class:`repro.experiments.ExperimentResult` to stderr."""
    from repro.experiments import format_table

    print(file=sys.stderr)
    print(format_table(result), file=sys.stderr)


def round_tripped(sweep):
    """The sweep as a store or pool worker would hand it back: every run
    through ``ScenarioRun.from_dict(run.to_dict())`` (no engine, no raw
    results, stringified workload keys)."""
    from repro.campaign import CampaignResult
    from repro.scenario import ScenarioRun
    return CampaignResult(sweep.campaign, [
        result if result.run is None else replace(
            result, run=ScenarioRun.from_dict(result.run.to_dict()))
        for result in sweep])


def rows_markdown(result) -> str:
    """``result``'s measured table as the report renders it, wall-clock
    cells masked."""
    from repro.experiments.base import _markdown_table
    return _WALL_CLOCK_ROW.sub(r"\1 (wall-clock) |",
                               _markdown_table(result)) + "\n"


def reproduce(benchmark, module):
    """Run one experiment module's full-scale campaign once (timed), then
    report over it — and hold the report to the two things that make it
    rebuildable from a store: it is the same over the round-tripped
    sweep, and its rows match ``tests/golden/experiments/<exp_id>.md``
    (``REPRO_BENCH_WRITE=1`` refreshes the fixture instead).
    """
    sweep = run_once(benchmark, lambda: module.campaign().run(jobs=1))
    result = module.report(sweep)
    print_result(result)
    assert module.report(round_tripped(sweep)) == result, \
        f"{result.exp_id}: report depends on more than the stored metrics"
    golden = GOLDEN_ROWS / f"{result.exp_id}.md"
    if os.environ.get("REPRO_BENCH_WRITE"):
        golden.write_text(rows_markdown(result), encoding="utf-8")
    assert rows_markdown(result) == golden.read_text(encoding="utf-8"), \
        f"{result.exp_id}: rows drifted from {golden}"
    return result
