"""Experiment harness: structured results, a registry and reporting.

Every table and figure of the paper's evaluation has a runner module in
this package.  A runner computes the same rows/series the paper reports
and returns an :class:`ExperimentResult` carrying:

* the formatted rows (what the paper's table/plot shows),
* the paper's own claim for side-by-side comparison,
* a list of :class:`Check` objects — the *shape* assertions (who wins, by
  roughly what factor, where crossovers fall) that decide whether the
  reproduction holds.

The benchmarks under ``benchmarks/`` call the same runners (so the timed
harness and the report can never drift apart), and
:func:`render_markdown` turns a set of results into the repository's
``EXPERIMENTS.md``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence

__all__ = ["Check", "ExperimentResult", "experiment", "registered",
           "get_runner", "run_experiments", "scenario_engine",
           "campaign_factory", "as_campaign", "campaigns_registered",
           "format_table", "render_markdown"]


def scenario_engine(builder, schedule=None, *, backend: str = "kollaps",
                    machines: int = 1, seed: int = 0, placement=None,
                    backend_options=None, **tunables):
    """A live execution system via the Scenario API and backend registry.

    Every experiment runner that drives a system by hand assembles it
    through this one helper, so all reproduction workloads flow through
    the unified :mod:`repro.scenario` choke point (validation included)
    *and* the :mod:`repro.scenario.backends` registry — no runner
    constructs an engine or baseline class directly.  ``builder`` is a
    :class:`~repro.scenario.Scenario`; ``schedule`` optionally adds
    dynamic events to it.  ``backend`` selects the executing system
    (default: the Kollaps engine); ``tunables`` are
    :class:`~repro.core.engine.EngineConfig` fields
    (``enforce_bandwidth_sharing``, ``congestion_sensitivity``, ...).
    """
    from repro.scenario import resolve_backend
    for event in (schedule or []):
        builder.event(event)
    builder.deploy(machines=machines, seed=seed, placement=placement,
                   **tunables)
    return resolve_backend(backend, **(backend_options or {})).prepare(
        builder.compile())


@dataclass
class Check:
    """One shape assertion with its outcome."""

    description: str
    passed: bool

    def __str__(self) -> str:
        marker = "PASS" if self.passed else "FAIL"
        return f"[{marker}] {self.description}"


@dataclass
class ExperimentResult:
    """Everything one table/figure reproduction produced."""

    exp_id: str                     # e.g. "table2", "fig8"
    title: str
    paper_claim: str                # what the paper reports, one paragraph
    headers: Sequence[str]
    rows: List[Sequence[object]]
    checks: List[Check] = field(default_factory=list)
    notes: str = ""

    def check(self, description: str, condition: bool) -> None:
        """Record one shape assertion."""
        self.checks.append(Check(description, bool(condition)))

    def passed(self) -> bool:
        return all(check.passed for check in self.checks)

    def failures(self) -> List[Check]:
        return [check for check in self.checks if not check.passed]

    def assert_all(self) -> None:
        """Raise AssertionError on the first failing check (for pytest)."""
        for check in self.checks:
            assert check.passed, f"{self.exp_id}: {check.description}"


_REGISTRY: Dict[str, Callable[..., ExperimentResult]] = {}
_CAMPAIGNS: Dict[str, Callable] = {}

# Presentation order for the report: the paper's own order.
_ORDER = ["table2", "table3", "fig3", "fig4", "fig5", "fig6", "fig7",
          "fig8", "table4", "fig9", "fig10", "fig11"]


def experiment(exp_id: str):
    """Register ``run(quick=False) -> ExperimentResult`` under ``exp_id``."""

    def decorator(function: Callable[..., ExperimentResult]):
        if exp_id in _REGISTRY:
            raise ValueError(f"duplicate experiment id {exp_id!r}")
        _REGISTRY[exp_id] = function
        return function

    return decorator


def campaign_factory(exp_id: str):
    """Register ``campaign(**kwargs) -> Campaign`` under ``exp_id``.

    The decorated factory is the *one* definition of an experiment's
    sweep: the serial runner iterates the campaign it returns (with
    ``jobs=1`` and no store) and ``repro campaign run <exp_id>`` executes
    the very same grid in parallel against a persistent store — the two
    paths cannot drift.
    """

    def decorator(function: Callable):
        if exp_id in _CAMPAIGNS:
            raise ValueError(f"duplicate campaign id {exp_id!r}")
        _CAMPAIGNS[exp_id] = function
        return function

    return decorator


def campaigns_registered() -> List[str]:
    """Every experiment id that also exposes a campaign form."""
    _load_all()
    return sorted(_CAMPAIGNS)


def as_campaign(exp_id: str, **kwargs):
    """The campaign form of a registered experiment (fig5, table2, ...)."""
    _load_all()
    try:
        factory = _CAMPAIGNS[exp_id]
    except KeyError:
        raise KeyError(
            f"experiment {exp_id!r} has no campaign form; "
            f"available: {', '.join(campaigns_registered()) or 'none'}"
        ) from None
    return factory(**kwargs)


def registered() -> List[str]:
    """All experiment ids, paper order first, extras alphabetically after."""
    _load_all()
    extras = sorted(set(_REGISTRY) - set(_ORDER))
    return [exp_id for exp_id in _ORDER if exp_id in _REGISTRY] + extras


def get_runner(exp_id: str) -> Callable[..., ExperimentResult]:
    _load_all()
    try:
        return _REGISTRY[exp_id]
    except KeyError:
        raise KeyError(f"unknown experiment {exp_id!r}; "
                       f"known: {registered()}") from None


def run_experiments(only: Optional[Iterable[str]] = None, *,
                    quick: bool = False,
                    progress: Optional[Callable[[str], None]] = None
                    ) -> List[ExperimentResult]:
    """Run the selected (default: all) experiments in paper order."""
    _load_all()
    wanted = list(only) if only is not None else registered()
    for exp_id in wanted:
        if exp_id not in _REGISTRY:
            raise KeyError(f"unknown experiment {exp_id!r}; "
                           f"known: {registered()}")
    results = []
    for exp_id in registered():
        if exp_id not in wanted:
            continue
        if progress is not None:
            progress(exp_id)
        results.append(_REGISTRY[exp_id](quick=quick))
    return results


def _load_all() -> None:
    """Import every runner module so the registry is populated."""
    from repro.experiments import (  # noqa: F401
        ablation_perdest, ablation_precompute, ablation_sharing,
        fig3, fig4, fig5, fig6, fig7, fig8, fig9, fig10, fig11,
        table2, table3, table4,
    )


# ------------------------------------------------------------- presentation
def format_table(result: ExperimentResult) -> str:
    """Aligned plain-text rendering (what the benchmarks print)."""
    rows = [[str(cell) for cell in row] for row in result.rows]
    widths = [len(header) for header in result.headers]
    for row in rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = [f"=== {result.title} ==="]
    lines.append("  ".join(header.ljust(width)
                           for header, width in zip(result.headers, widths)))
    lines.append("-" * len(lines[-1]))
    for row in rows:
        lines.append("  ".join(cell.ljust(width)
                               for cell, width in zip(row, widths)))
    return "\n".join(lines)


def _markdown_table(result: ExperimentResult) -> str:
    def row_text(cells: Sequence[object]) -> str:
        return "| " + " | ".join(str(cell) for cell in cells) + " |"

    lines = [row_text(result.headers),
             "|" + "|".join("---" for _ in result.headers) + "|"]
    lines.extend(row_text(row) for row in result.rows)
    return "\n".join(lines)


def render_markdown(results: Sequence[ExperimentResult]) -> str:
    """The EXPERIMENTS.md document: paper-vs-measured for every experiment."""
    lines = [
        "# EXPERIMENTS — paper vs. measured",
        "",
        "Generated by `python -m repro.experiments` (also exercised, with",
        "identical code paths, by `pytest benchmarks/ --benchmark-only`).",
        "Absolute numbers come from the simulated substrate and are not",
        "expected to match the authors' testbed; each experiment instead",
        "records *shape checks* — who wins, by what factor, where the",
        "crossovers fall — mirroring the paper's qualitative claims.",
        "",
        "## Summary",
        "",
        "| Experiment | Title | Checks | Verdict |",
        "|---|---|---|---|",
    ]
    for result in results:
        verdict = "reproduced" if result.passed() else "NOT reproduced"
        lines.append(f"| {result.exp_id} | {result.title} | "
                     f"{sum(c.passed for c in result.checks)}"
                     f"/{len(result.checks)} | {verdict} |")
    lines.append("")
    for result in results:
        lines.append(f"## {result.exp_id}: {result.title}")
        lines.append("")
        lines.append(f"**Paper:** {result.paper_claim}")
        lines.append("")
        lines.append("**Measured:**")
        lines.append("")
        lines.append(_markdown_table(result))
        lines.append("")
        if result.notes:
            lines.append(f"**Notes:** {result.notes}")
            lines.append("")
        lines.append("**Shape checks:**")
        lines.append("")
        for check in result.checks:
            marker = "x" if check.passed else " "
            lines.append(f"- [{marker}] {check.description}")
        lines.append("")
    return "\n".join(lines) + "\n"
