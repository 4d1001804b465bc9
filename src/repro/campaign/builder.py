"""The :class:`Campaign` builder: factory × grid × seeds × backends.

A campaign turns one scenario factory plus a parameter grid into a
parallel, resumable experiment sweep::

    from repro.campaign import Campaign

    def sweep(*, bandwidth, seed=0):
        return (point_to_point(bandwidth)
                .workload(flow("client", "server", key="f"))
                .deploy(seed=seed, duration=5.0))

    result = (Campaign("shaping")
              .scenario(sweep)
              .grid(bandwidth=[1e6, 1e7, 1e8, 1e9])
              .seeds(3)
              .backends("kollaps", "baremetal")
              .run(jobs=4, store="campaigns"))
    print(result.aggregate().to_markdown())

``run()`` expands the grid to deterministic
:class:`~repro.campaign.grid.Point`\\ s, skips the ones a previous
(interrupted) run already stored, executes the rest with per-point
isolation, and returns a :class:`CampaignResult` whose
:class:`~repro.campaign.aggregate.Aggregate` is byte-identical however
many jobs ran the sweep.
"""

from __future__ import annotations

import importlib.util
import os
import sys
from dataclasses import replace
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Union

from repro.campaign.aggregate import Aggregate
from repro.campaign.executor import CampaignEvent, PointResult, \
    execute_points
from repro.campaign.grid import BackendEntry, CampaignError, Point, \
    expand_grid
from repro.campaign.store import ResultStore

__all__ = ["Campaign", "CampaignResult", "load_campaign", "run_campaigns"]


class CampaignResult:
    """Every point's outcome, in deterministic shard order."""

    def __init__(self, campaign: str, results: Sequence[PointResult],
                 skipped: int = 0) -> None:
        self.campaign = campaign
        self.results: List[PointResult] = list(results)
        self.skipped = skipped

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self):
        return iter(self.results)

    # ------------------------------------------------------------- selection
    def ok(self) -> List[PointResult]:
        return [result for result in self.results if result.ok]

    def failed(self) -> List[PointResult]:
        return [result for result in self.results
                if result.status == "error"]

    def result_for(self, *, backend: Optional[str] = None,
                   seed: Optional[int] = None,
                   **params) -> Optional[PointResult]:
        """The single point matching the selector, or None.

        ``backend`` matches the point's label; any grid parameter can be
        named.  Ambiguous selectors and unknown parameter names raise, so
        experiment code cannot silently read the wrong cell.
        """
        if self.results:
            known = {name for result in self.results
                     for name, _value in result.point.params}
            unknown = sorted(set(params) - known)
            if unknown:
                raise CampaignError(
                    f"selector names unknown grid parameter(s) "
                    f"{', '.join(unknown)}; this campaign's axes: "
                    f"{', '.join(sorted(known)) or 'none'}")
        matches = []
        for result in self.results:
            point = result.point
            if backend is not None and point.label != backend:
                continue
            if seed is not None and point.seed != seed:
                continue
            cell = point.params_dict()
            if any(cell.get(name) != value
                   for name, value in params.items()):
                continue
            matches.append(result)
        if len(matches) > 1:
            described = "; ".join(match.point.describe() for match in matches)
            raise CampaignError(
                f"selector matches {len(matches)} points ({described}); "
                "name more parameters")
        return matches[0] if matches else None

    def run_for(self, *, backend: Optional[str] = None,
                seed: Optional[int] = None, **params):
        """The matching point's :class:`ScenarioRun`; raises when absent.

        The error carries the point's captured failure (or says the cell
        never ran), so a KeyError-style hunt is never needed.
        """
        result = self.result_for(backend=backend, seed=seed, **params)
        selector = ", ".join(
            [f"backend={backend}"] * (backend is not None)
            + [f"seed={seed}"] * (seed is not None)
            + [f"{name}={value!r}" for name, value in params.items()])
        if result is None:
            raise CampaignError(
                f"campaign {self.campaign!r} has no point for ({selector})")
        if not result.ok or result.run is None:
            raise CampaignError(
                f"campaign {self.campaign!r} point ({selector}) did not "
                f"complete: [{result.status}] {result.error}")
        return result.run

    # ----------------------------------------------------------- aggregation
    def aggregate(self) -> Aggregate:
        return Aggregate(self.results)

    def describe(self) -> str:
        counts: Dict[str, int] = {}
        for result in self.results:
            counts[result.status] = counts.get(result.status, 0) + 1
        parts = [f"{len(self.results)} points"]
        parts += [f"{count} {status}"
                  for status, count in sorted(counts.items())]
        if self.skipped:
            parts.append(f"{self.skipped} resumed from store")
        return f"campaign {self.campaign!r}: " + ", ".join(parts)


class Campaign:
    """Fluent sweep builder over one scenario factory.

    The factory is called once per point with the point's grid parameters
    as keyword arguments (plus ``seed`` when its signature accepts one)
    and returns a :class:`~repro.scenario.builder.Scenario` builder (the
    preferred form — the campaign threads the seed) or a ready
    :class:`~repro.scenario.compiled.CompiledScenario`.
    """

    def __init__(self, name: str) -> None:
        if not name or os.path.sep in name or name in (".", ".."):
            raise CampaignError(
                f"campaign name {name!r} must be a plain directory name")
        self.name = name
        self._factory: Optional[Callable] = None
        self._grid: Dict[str, List[object]] = {}
        self._seeds: List[int] = [0]
        self._backends: List[BackendEntry] = []
        self._until: Optional[float] = None
        self._excludes: List[Callable[[Point], bool]] = []

    # ------------------------------------------------------------ definition
    def scenario(self, factory: Callable) -> "Campaign":
        """The scenario factory executed at every grid point."""
        if not callable(factory):
            raise CampaignError(
                f"scenario() takes a callable factory, got {factory!r}")
        self._factory = factory
        return self

    #: Axis names the aggregate's own report columns already use; allowing
    #: them would silently clobber rows()/summary()/compare() output.
    RESERVED_AXES = frozenset({
        "seed", "backend", "workload", "metric", "value", "status", "error",
        "baseline", "relative", "deviation", "mean", "min", "max", "count"})

    def grid(self, **params: Union[Sequence, object]) -> "Campaign":
        """Add grid axes: each keyword maps to its sequence of values.

        A scalar becomes a single-value axis; repeated calls merge (a
        repeated name replaces its axis).  Declaration order is the shard
        order's nesting: first axis varies slowest.  Axis names the
        aggregate reports under already (:attr:`RESERVED_AXES` — ``seed``,
        ``backend``, ``workload``, ``value``, ...) are rejected.
        """
        reserved = sorted(set(params) & self.RESERVED_AXES)
        if reserved:
            raise CampaignError(
                f"grid axis name(s) {', '.join(reserved)} are reserved "
                "for the aggregate's own columns; rename the parameter(s)")
        for name, values in params.items():
            if isinstance(values, (str, bytes)) or not hasattr(values,
                                                               "__iter__"):
                values = [values]
            values = list(values)
            if not values:
                raise CampaignError(f"grid axis {name!r} has no values")
            self._grid[name] = values
        return self

    def seeds(self, seeds: Union[int, Iterable[int]]) -> "Campaign":
        """``seeds(3)`` means seeds 0..2; an iterable gives them verbatim."""
        if isinstance(seeds, int):
            if seeds < 1:
                raise CampaignError("seeds(n) needs n >= 1")
            self._seeds = list(range(seeds))
        else:
            self._seeds = [int(seed) for seed in seeds]
            if not self._seeds:
                raise CampaignError("seeds() needs at least one seed")
        return self

    def backend(self, name: str, *, alias: Optional[str] = None,
                **options) -> "Campaign":
        """Add one execution target; ``alias`` names this configuration
        (mandatory in effect when the same backend appears twice)."""
        label = alias if alias is not None else name
        self._backends.append(BackendEntry(
            name=name, label=label,
            options=tuple(sorted(options.items()))))
        return self

    def backends(self, *names: str) -> "Campaign":
        """Add several option-free execution targets at once."""
        for name in names:
            self.backend(name)
        return self

    def until(self, duration: Optional[float]) -> "Campaign":
        """Cap every point's run horizon (default: each scenario's own)."""
        self._until = duration
        return self

    def exclude(self, predicate: Callable[[Point], bool]) -> "Campaign":
        """Drop grid cells the sweep should never attempt (the evaluation's
        known N/A corners, e.g. a backend beyond its published scale)."""
        self._excludes.append(predicate)
        return self

    # ------------------------------------------------------------- expansion
    def points(self) -> List[Point]:
        """The deterministic shard-ordered expansion of the grid."""
        if self._factory is None:
            raise CampaignError(
                f"campaign {self.name!r} has no scenario factory; call "
                ".scenario(factory) before expanding or running")
        backends = self._backends or [BackendEntry("kollaps", "kollaps")]
        points = expand_grid(self.name, self._grid, self._seeds, backends,
                             until=self._until)
        if self._excludes:
            points = [point for point in points
                      if not any(predicate(point)
                                 for predicate in self._excludes)]
            points = [replace(point, index=index)
                      for index, point in enumerate(points)]
        return points

    def spec(self) -> Dict[str, object]:
        """The manifest form of this campaign definition."""
        backends = self._backends or [BackendEntry("kollaps", "kollaps")]
        factory = self._factory
        return {"name": self.name,
                "factory": (None if factory is None else
                            f"{getattr(factory, '__module__', '?')}."
                            f"{getattr(factory, '__qualname__', '?')}"),
                "grid": {name: [repr(value) for value in values]
                         for name, values in self._grid.items()},
                "seeds": list(self._seeds),
                "backends": [{"name": entry.name, "label": entry.label,
                              "options": entry.options_dict()}
                             for entry in backends],
                "until": self._until}

    # -------------------------------------------------------------- describe
    def describe(self, points: Optional[List[Point]] = None) -> str:
        """One-line shape summary; pass pre-expanded ``points`` to avoid
        re-expanding (and re-hashing) a large grid."""
        if points is None:
            points = self.points()
        backends = self._backends or [BackendEntry("kollaps", "kollaps")]
        axes = ", ".join(f"{name}×{len(values)}"
                         for name, values in self._grid.items()) or "(none)"
        return (f"campaign {self.name!r}: {len(points)} points — "
                f"grid [{axes}] × {len(self._seeds)} seed(s) × "
                f"{len(backends)} backend(s): "
                + ", ".join(entry.label for entry in backends))

    # ------------------------------------------------------------- execution
    def _store(self, store: Union[None, str, ResultStore]) -> \
            Optional[ResultStore]:
        if store is None or isinstance(store, ResultStore):
            return store
        return ResultStore(os.path.join(str(store), self.name))

    def run(self, *, jobs: int = 1,
            store: Union[None, str, ResultStore] = None,
            resume: bool = True,
            progress: Optional[Callable[[CampaignEvent], None]] = None
            ) -> CampaignResult:
        """Execute the sweep: expand, skip stored points, run the rest —
        :func:`run_campaigns` of this campaign alone.

        ``store`` is a campaigns root directory (the campaign writes under
        ``<store>/<name>/``), a ready :class:`ResultStore`, or None for a
        purely in-memory run.  ``resume=False`` re-executes every point
        (new records supersede old ones in the store) and also drops the
        in-process collapse memo, so a ``--fresh`` run measures cold-path
        costs rather than inheriting cached shortest paths.
        """
        return run_campaigns([self], jobs=jobs, store=store, resume=resume,
                             progress=progress)[0]

    def load(self, store: Union[str, ResultStore]) -> CampaignResult:
        """This campaign's stored results, without executing anything.

        Points the store has no record for are simply absent from the
        result — ``repro campaign status`` reports them as missing.
        """
        store_obj = self._store(store)
        records = store_obj.load()
        results = []
        for point in self.points():
            record = records.get(point.digest())
            if record is not None:
                results.append(PointResult.from_record(record, point))
        return CampaignResult(self.name, results, skipped=len(results))


def run_campaigns(campaigns: Sequence[Campaign], *, jobs: int = 1,
                  store: Union[None, str, ResultStore] = None,
                  resume: bool = True,
                  progress: Optional[Callable[[CampaignEvent], None]] = None
                  ) -> List[CampaignResult]:
    """Execute several sweeps as one: every campaign's points through one
    executor (one process pool at ``jobs > 1``), submitted campaign by
    campaign in grid order, each campaign's records in its own store.

    ``store``, ``resume`` and ``progress`` mean what they mean to
    :meth:`Campaign.run`; the results come back one
    :class:`CampaignResult` per campaign, in the order given.
    """
    names = [campaign.name for campaign in campaigns]
    if len(set(names)) != len(names):
        raise CampaignError(f"campaign names must be distinct: {names}")
    if not resume:
        from repro.core.collapse import clear_collapse_cache
        clear_collapse_cache()
    tasks = []
    stores = {}
    for campaign in campaigns:
        tasks += [(campaign._factory, point) for point in campaign.points()]
        store_obj = campaign._store(store)
        if store_obj is not None:
            store_obj.write_manifest(campaign.spec())
            stores[campaign.name] = store_obj
    grouped: Dict[str, List[PointResult]] = {name: [] for name in names}
    for result in execute_points(tasks, jobs=jobs, stores=stores,
                                 resume=resume, progress=progress):
        grouped[result.point.campaign].append(result)
    return [CampaignResult(name, results,
                           skipped=sum(result.source == "store"
                                       for result in results))
            for name, results in grouped.items()]


# ---------------------------------------------------------------------------
# Loading campaigns from files and experiment ids (the CLI's entry point).
# ---------------------------------------------------------------------------
def load_campaign(source: str, *, quick: bool = False) -> Campaign:
    """A campaign from a ``.py`` file exposing ``CAMPAIGN``, or a
    registered experiment id (``fig5``, ``table2``, ``table4``, ...) —
    at its smoke-test scale with ``quick``.

    The module is registered in :data:`sys.modules` under a stable name so
    its factory functions survive pickling into worker processes; a module
    that fails to load, or exposes no campaign, is unregistered again.
    """
    if source.endswith(".py"):
        if quick:
            raise CampaignError(
                f"{source!r}: the quick scale belongs to registered "
                "experiments, not to campaign files")
        stem = os.path.splitext(os.path.basename(source))[0]
        module_name = f"repro_campaign_{stem}"
        spec = importlib.util.spec_from_file_location(module_name, source)
        if spec is None or spec.loader is None:
            raise CampaignError(f"cannot import campaign module {source!r}")
        module = importlib.util.module_from_spec(spec)
        sys.modules[module_name] = module
        try:
            spec.loader.exec_module(module)
            candidate = getattr(module, "CAMPAIGN", None)
            if candidate is None:
                raise CampaignError(
                    f"{source!r} defines no CAMPAIGN (a Campaign or a "
                    "zero-argument callable returning one)")
            if callable(candidate) and not isinstance(candidate, Campaign):
                candidate = candidate()
            if not isinstance(candidate, Campaign):
                raise CampaignError(
                    f"{source!r}: CAMPAIGN is {type(candidate).__name__}, "
                    "expected repro.campaign.Campaign")
        except BaseException:
            sys.modules.pop(module_name, None)
            raise
        return candidate
    from repro.experiments.base import as_campaign
    try:
        return as_campaign(source, quick=quick)
    except KeyError as error:
        raise CampaignError(error.args[0]) from None
