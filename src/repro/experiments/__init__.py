"""The paper's evaluation (§5): one module per table, figure and ablation,
each a campaign plus a report over its stored metrics (the shape is
described in :mod:`repro.experiments.base`).  ``python -m
repro.experiments`` runs any subset and regenerates ``EXPERIMENTS.md``.
"""

from repro.experiments.base import (
    Check,
    ExperimentResult,
    as_campaign,
    experiment,
    format_table,
    get_runner,
    registered,
    render_markdown,
    run_experiments,
)

__all__ = [
    "Check",
    "ExperimentResult",
    "as_campaign",
    "experiment",
    "format_table",
    "get_runner",
    "registered",
    "render_markdown",
    "run_experiments",
]
