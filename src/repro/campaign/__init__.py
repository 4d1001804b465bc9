"""The campaign subsystem: parallel, resumable experiment sweeps.

The paper's evaluation is a grid — topologies × backends × seeds × engine
tunables.  A :class:`Campaign` declares that grid over one scenario
factory and executes it as a sweep: deterministic
:class:`~repro.campaign.grid.Point` expansion, a process pool with
per-point isolation and failure capture, a persistent JSONL
:class:`~repro.campaign.store.ResultStore` (content-addressed by point
hash, so an interrupted campaign resumes exactly where it stopped) and an
:class:`~repro.campaign.aggregate.Aggregate` API over the unified
:class:`~repro.scenario.results.ScenarioRun` results.

    from repro.campaign import Campaign

    result = (Campaign("sweep")
              .scenario(factory)                  # factory(**params) -> Scenario
              .grid(bandwidth=[1e6, 1e8, 1e9])
              .seeds(3)
              .backends("kollaps", "baremetal")
              .run(jobs=4, store="campaigns"))

The CLI front end is ``repro campaign run|status|report|compact``; every
table, figure and ablation of the paper's evaluation is a campaign too,
via :func:`repro.experiments.base.as_campaign`, and
:func:`~repro.campaign.builder.run_campaigns` runs several in one pool —
``repro campaign run paper`` is all of them.
"""

from repro.campaign.aggregate import Aggregate
from repro.campaign.builder import Campaign, CampaignResult, \
    load_campaign, run_campaigns
from repro.campaign.executor import (
    CampaignEvent,
    PointResult,
    execute_points,
    run_point,
)
from repro.campaign.grid import BackendEntry, CampaignError, Point, \
    expand_grid
from repro.campaign.store import ResultStore

__all__ = [
    "Aggregate",
    "BackendEntry",
    "Campaign",
    "CampaignError",
    "CampaignEvent",
    "CampaignResult",
    "Point",
    "PointResult",
    "ResultStore",
    "execute_points",
    "expand_grid",
    "load_campaign",
    "run_campaigns",
    "run_point",
]
