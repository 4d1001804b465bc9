"""The paper's evaluation (§5): one module per table, figure and ablation,
each a campaign plus a report over its stored metrics (the shape is
described in :mod:`repro.experiments.base`).  ``repro campaign run paper``
runs them all as one campaign, and ``repro campaign report paper`` writes
``EXPERIMENTS.md`` from its store.
"""

from repro.experiments.base import (
    Check,
    ExperimentResult,
    as_campaign,
    experiment,
    registered,
    render_markdown,
    report_sweep,
)

__all__ = [
    "Check",
    "ExperimentResult",
    "as_campaign",
    "experiment",
    "registered",
    "render_markdown",
    "report_sweep",
]
