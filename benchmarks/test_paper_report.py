"""EXPERIMENTS.md — ``repro campaign report paper`` over a stored evaluation.

The report is rendered from the session's campaign store alone, by the
command-line front end, and every experiment's measured table in it must
be its pinned ``tests/golden/experiments/<exp_id>.md`` (wall-clock rows
masked).
"""

import pytest

from conftest import GOLDEN_ROWS, mask_wall_clock
from repro.cli import main
from repro.experiments import registered


@pytest.mark.experiment(*registered())
def test_report_paper_renders_every_experiment(paper_sweeps, paper_store,
                                               tmp_path):
    output = tmp_path / "EXPERIMENTS.md"
    assert main(["campaign", "report", "paper", "--store", str(paper_store),
                 "-o", str(output)]) == 0
    text = output.read_text(encoding="utf-8")
    for exp_id in registered():
        section = text.split(f"\n## {exp_id}: ", 1)[1]
        table = section.split("**Measured:**\n\n", 1)[1].split("\n\n", 1)[0]
        golden = GOLDEN_ROWS / f"{exp_id}.md"
        assert mask_wall_clock(table + "\n") == \
            golden.read_text(encoding="utf-8"), exp_id
