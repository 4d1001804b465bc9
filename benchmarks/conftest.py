"""Shared helpers for the reproduction benchmarks.

Every ``test_<figure>`` module holds one table, figure or ablation of the
paper's evaluation to its shape checks and its pinned rows, and prints
the rows.  Shape checks ask who wins, by roughly what factor and where
the crossovers fall, not for absolute values: the substrate is a
simulator, not the authors' testbed.

No test runs its experiment.  A test marked
``@pytest.mark.experiment(exp_id, ...)`` reads its sweep from
:func:`paper_sweeps`: one ``run_campaigns`` call over the experiments of
every collected test (``repro campaign run paper``, restricted to them),
in one pool with a worker per CPU this process may use, into a temporary
store.  So ``pytest benchmarks`` runs the evaluation once, and ``pytest
benchmarks/test_fig8_throttling.py`` runs Figure 8 alone.
"""

from __future__ import annotations

import os
import re
import sys
from pathlib import Path
from typing import Iterable, List, Sequence

import pytest

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
    """Print an :class:`repro.experiments.ExperimentResult`'s section of
    the EXPERIMENTS.md report to stderr."""
    from repro.experiments import render_markdown

    document = render_markdown([result])
    section = document[document.index(f"## {result.exp_id}:"):]
    print(file=sys.stderr)
    print(section.rstrip("\n"), file=sys.stderr)


def mask_wall_clock(markdown: str) -> str:
    """``markdown`` with ablation-precompute's wall-clock cells masked."""
    return _WALL_CLOCK_ROW.sub(r"\1 (wall-clock) |", markdown)


def rows_markdown(result) -> str:
    """``result``'s measured table as the report renders it, wall-clock
    cells masked."""
    from repro.experiments.base import _markdown_table
    return mask_wall_clock(_markdown_table(result)) + "\n"


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "experiment(exp_id, ...): the test reads these "
                   "experiments' sweeps from the session's campaign run")


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@pytest.fixture(scope="session")
def paper_store(tmp_path_factory) -> Path:
    """The campaigns root the session's evaluation run stores into."""
    return tmp_path_factory.mktemp("campaigns")


@pytest.fixture(scope="session")
def paper_sweeps(request, paper_store):
    """exp_id -> full-scale sweep of every experiment a collected test is
    marked with, all run by one :func:`run_campaigns` call."""
    from repro.campaign import run_campaigns
    from repro.experiments import as_campaign, registered
    wanted = {exp_id for item in request.session.items
              for marker in item.iter_markers("experiment")
              for exp_id in marker.args}
    campaigns = [as_campaign(exp_id) for exp_id in registered()
                 if exp_id in wanted]
    sweeps = run_campaigns(campaigns, jobs=_usable_cpus(),
                           store=str(paper_store))
    return {sweep.campaign: sweep for sweep in sweeps}


@pytest.fixture
def sweep(request, paper_sweeps):
    """The sweep of the one experiment the test is marked with."""
    (exp_id,) = request.node.get_closest_marker("experiment").args
    return paper_sweeps[exp_id]


def reproduce(sweep):
    """Report over one experiment's sweep, its rows held to
    ``tests/golden/experiments/<exp_id>.md`` (``REPRO_BENCH_WRITE=1``
    refreshes the fixture instead).

    Run in a pool (more than one usable CPU), the sweep comes back as
    stored records, so this is the report over stored metrics; that a
    report over live runs equals it is held at quick scale by
    ``tests/test_experiments.py``.
    """
    from repro.experiments import report_sweep
    result = report_sweep(sweep)
    print_result(result)
    golden = GOLDEN_ROWS / f"{result.exp_id}.md"
    if os.environ.get("REPRO_BENCH_WRITE"):
        golden.write_text(rows_markdown(result), encoding="utf-8")
    assert rows_markdown(result) == golden.read_text(encoding="utf-8"), \
        f"{result.exp_id}: rows drifted from {golden}"
    return result
