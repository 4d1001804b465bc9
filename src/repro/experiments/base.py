"""Experiment harness: one shape, one registry, structured results.

Every table and figure of the paper's evaluation is a module in this
package with the same three parts:

* ``point_scenario(**params, seed)`` — the scenario at one grid point,
  its measurements declared as workloads;
* ``campaign(**scale)`` — the grid (parameters × seeds × backends) as a
  :class:`~repro.campaign.Campaign`;
* ``report(sweep)`` — the paper's rows plus the *shape* checks (who wins,
  by roughly what factor, where crossovers fall) as an
  :class:`ExperimentResult`, computed from the sweep's stored
  :class:`~repro.scenario.results.Metrics` alone, so a sweep that went
  through a process pool or a result store reports exactly as a live one
  does.

:func:`experiment` registers the three under an id.  There is one way
to run them: as campaigns.  ``repro campaign run paper [--quick]`` runs
every registered experiment's points in one pool into one store
(``repro campaign run <id>`` one of them), ``repro campaign report
paper`` applies each :func:`report_sweep` to its stored sweep and
:func:`render_markdown` turns the results into ``EXPERIMENTS.md``; the
tests under ``benchmarks/`` read the same campaign run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Sequence

__all__ = ["Check", "ExperimentResult", "Experiment", "experiment",
           "grid_campaign", "registered", "as_campaign", "report_sweep",
           "run_or_na", "render_markdown"]


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


@dataclass(frozen=True)
class Experiment:
    """One registered reproduction: its grid, its report, its quick scale."""

    campaign: Callable                      # campaign(**scale) -> Campaign
    report: Callable[..., ExperimentResult]     # report(sweep)
    quick: Mapping[str, object]             # campaign kwargs of --quick


_REGISTRY: Dict[str, Experiment] = {}

# Presentation order for the report: the paper's own order.
_ORDER = ["table2", "table3", "fig3", "fig4", "fig5", "fig6", "fig7",
          "fig8", "table4", "fig9", "fig10", "fig11"]


def experiment(exp_id: str, campaign: Callable, **quick):
    """Register ``report(sweep) -> ExperimentResult`` under ``exp_id``.

    ``campaign`` is the module's grid factory — the *one* definition of
    the experiment's sweep, whoever executes it — and ``quick`` the
    keyword arguments that shrink it to smoke-test scale.
    """

    def decorator(report: Callable[..., ExperimentResult]):
        if exp_id in _REGISTRY:
            raise ValueError(f"duplicate experiment id {exp_id!r}")
        _REGISTRY[exp_id] = Experiment(campaign, report, quick)
        return report

    return decorator


def grid_campaign(name: str, factory: Callable, *, seed: int,
                  backends: Sequence[str] = ("kollaps",), **axes) -> Callable:
    """A ``campaign(**scale)`` factory: ``axes`` × one seed × ``backends``.

    ``scale`` replaces axes by name (``campaign(duration=2.0)``).  The
    :mod:`repro.campaign` import waits for the call, so importing an
    experiment module for its scenario factory alone never pays for it.
    """

    def campaign(**scale):
        from repro.campaign import Campaign
        return (Campaign(name).scenario(factory).grid(**{**axes, **scale})
                .seeds([seed]).backends(*backends))

    return campaign


def _lookup(exp_id: str) -> Experiment:
    if exp_id not in _REGISTRY:
        _load_all()
    try:
        return _REGISTRY[exp_id]
    except KeyError:
        raise KeyError(f"unknown experiment {exp_id!r}; "
                       f"known: {registered()}") from None


def registered() -> List[str]:
    """All experiment ids, paper order first, extras alphabetically after."""
    _load_all()
    extras = sorted(set(_REGISTRY) - set(_ORDER))
    return [exp_id for exp_id in _ORDER if exp_id in _REGISTRY] + extras


def as_campaign(exp_id: str, *, quick: bool = False):
    """The campaign of a registered experiment (any of :func:`registered`),
    at its smoke-test scale with ``quick``."""
    entry = _lookup(exp_id)
    return entry.campaign(**(entry.quick if quick else {}))


def report_sweep(sweep) -> ExperimentResult:
    """The registered report over an experiment's sweep (a
    :class:`~repro.campaign.CampaignResult`, live or loaded from a store;
    the campaign's name is the experiment id)."""
    return _lookup(sweep.campaign).report(sweep)


def _load_all() -> None:
    """Import every experiment module so the registry is populated."""
    from repro.experiments import (  # noqa: F401
        ablation_perdest, ablation_precompute, ablation_sharing,
        fig3, fig4, fig5, fig6, fig7, fig8, fig9, fig10, fig11,
        table2, table3, table4,
    )


# ---------------------------------------------------------- report helpers
def run_or_na(sweep, **selector):
    """The selected cell's run, or None for one of the sweep's N/A cells.

    N/A is a cell the campaign excluded or whose backend failed
    validation (``incompatible``) — the paper's own N/A entries.  A cell
    that crashed still raises, with its captured failure.
    """
    cell = sweep.result_for(**selector)
    if cell is None or cell.status == "incompatible":
        return None
    return sweep.run_for(**selector)


# ------------------------------------------------------------- presentation
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
        "Generated by `repro campaign report paper` from the store of `repro",
        "campaign run paper` (the tests under `benchmarks/` run that campaign).",
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
    lines.append("")    # the document ends in two blank lines
    return "\n".join(lines) + "\n"
