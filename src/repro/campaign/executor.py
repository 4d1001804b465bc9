"""Point execution: per-point isolation, a process pool, failure capture.

One :func:`run_point` call turns a scenario factory plus a
:class:`~repro.campaign.grid.Point` into a :class:`PointResult`.  Every
outcome is captured — a clean :class:`~repro.scenario.results.ScenarioRun`,
a deterministic :class:`~repro.scenario.backends.BackendCompatibilityError`
(the sweep's N/A cells) or an arbitrary crash — so one broken point never
kills the sweep.

:func:`execute_points` runs ``(factory, point)`` pairs — one campaign's
grid or several campaigns' at once — and ``jobs > 1`` fans them across
one :class:`concurrent.futures.ProcessPoolExecutor`.  Workers hand back
the *serialized* run (:meth:`ScenarioRun.to_dict`) because a live engine
does not cross a process boundary; the parent reconstructs a metrics-only
:class:`ScenarioRun` via :meth:`ScenarioRun.from_dict`.  A point that
kills its worker process (``os._exit``, a signal, the OOM killer) breaks
the pool; the points it took down rerun one at a time in fresh processes,
so the crash is charged to the point that caused it alone.  Factories that
cannot be pickled (closures, REPL lambdas) degrade to in-process serial
execution with a ``fallback`` progress event instead of failing.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import sys
from dataclasses import dataclass, replace
from inspect import Parameter, signature
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro import telemetry
from repro.campaign.grid import Point
from repro.campaign.store import RESUMABLE_STATUSES, ResultStore
from repro.scenario.results import ScenarioRun

__all__ = ["PointResult", "CampaignEvent", "run_point", "execute_points"]


@dataclass(frozen=True)
class PointResult:
    """One point's outcome: a run, an incompatibility, or a failure.

    ``run`` is the live :class:`ScenarioRun` (engine attached) when the
    point executed in this process, and the metrics-only reconstruction
    when it came back from a worker or the store — :attr:`source` says
    which.
    """

    point: Point
    status: str                       # "ok" | "incompatible" | "error"
    run: Optional[ScenarioRun] = None
    error: str = ""
    elapsed: float = 0.0
    source: str = "run"               # "run" | "pool" | "store"

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def to_record(self) -> Dict[str, object]:
        """The JSONL store record (wall-clock excluded from identity)."""
        return {"hash": self.point.digest(),
                "point": self.point.to_dict(),
                "status": self.status,
                "error": self.error,
                "elapsed": round(self.elapsed, 6),
                "run": None if self.run is None else self.run.to_dict()}

    @classmethod
    def from_record(cls, record: Dict, point: Point,
                    source: str = "store") -> "PointResult":
        """The result a :meth:`to_record` record holds."""
        run = record["run"]
        return cls(point=point, status=record["status"],
                   run=None if run is None else ScenarioRun.from_dict(run),
                   error=record["error"], elapsed=float(record["elapsed"]),
                   source=source)


@dataclass(frozen=True)
class CampaignEvent:
    """One progress notification handed to the campaign's monitor."""

    kind: str                 # "start" | "ok" | "incompatible" | "error"
                              # | "skip" | "fallback"
    point: Optional[Point] = None
    error: str = ""
    elapsed: float = 0.0
    detail: str = ""


def _accepts_seed(factory: Callable) -> bool:
    """Whether the factory *declares* a ``seed`` parameter.

    Deliberately ignores ``**kwargs`` catch-alls: a factory that would
    merely swallow an unnamed seed gets the builder-side
    ``deploy(seed=...)`` treatment instead, so ``seeds(n)`` can never
    record n identical runs under different seed labels.
    """
    try:
        parameters = signature(factory).parameters
    except (TypeError, ValueError):
        return False
    parameter = parameters.get("seed")
    return parameter is not None and parameter.kind in (
        Parameter.POSITIONAL_OR_KEYWORD, Parameter.KEYWORD_ONLY)


def run_point(factory: Callable, point: Point) -> PointResult:
    """Execute one grid point in this process, capturing every outcome.

    The factory is called with the point's grid parameters (plus ``seed``
    when its signature takes one); a returned
    :class:`~repro.scenario.builder.Scenario` builder gets the point's
    seed via ``deploy(seed=...)`` before compiling, so every point is
    attributable even when the factory ignores seeding.  The run stops at
    the point's own ``until`` (None: the scenario's horizon).
    """
    from repro.scenario import BackendCompatibilityError, Scenario
    watch = telemetry.Stopwatch()
    span = telemetry.span("campaign.point", hash=point.digest(),
                          label=point.label, index=point.index)

    def failed(status: str, message: str) -> PointResult:
        span.set(status=status).finish()
        result = PointResult(point=point, status=status, error=message,
                             elapsed=watch.stop())
        _record_point_metrics(result)
        return result

    try:
        kwargs = point.params_dict()
        seed_threaded = _accepts_seed(factory)
        if seed_threaded:
            kwargs["seed"] = point.seed
        produced = factory(**kwargs)
        if isinstance(produced, Scenario):
            if not seed_threaded:
                produced.deploy(seed=point.seed)
            compiled = produced.compile()
        else:
            compiled = produced
        config_seed = getattr(getattr(compiled, "config", None), "seed", None)
        if not seed_threaded and config_seed != point.seed:
            return failed(
                "error",
                f"factory {getattr(factory, '__name__', factory)!r} returned "
                f"a compiled scenario with seed {config_seed} but takes no "
                f"'seed' parameter, so point seed {point.seed} cannot be "
                "applied; accept seed= or return an uncompiled Scenario")
        run = compiled.run(until=point.until, backend=point.backend,
                           **point.options_dict())
    except BackendCompatibilityError as error:
        return failed("incompatible", str(error))
    except Exception as error:  # noqa: BLE001 — the whole job is capture
        import traceback
        trace = traceback.format_exc(limit=8)
        return failed("error", f"{type(error).__name__}: {error}\n{trace}")
    span.set(status="ok").finish()
    run = replace(run, params=point.params_dict(),
                  backend=point.label)
    result = PointResult(point=point, status="ok", run=run,
                         elapsed=watch.stop())
    _record_point_metrics(result)
    return result


def _record_point_metrics(result: PointResult) -> None:
    if not telemetry.enabled():
        return
    registry = telemetry.metrics
    registry.counter("campaign.points").inc()
    registry.counter(f"campaign.points_{result.status}").inc()
    registry.histogram("campaign.point_seconds").observe(result.elapsed)


# ---------------------------------------------------------------------------
# Worker-side task: resolve the factory, run, hand back a plain record.
# ---------------------------------------------------------------------------
FactoryRef = Tuple[str, str, str]       # (module name, file path, qualname)


def factory_ref(factory: Callable) -> Optional[FactoryRef]:
    """A picklable reference a worker can resolve from the source file.

    Needed when the factory lives in a module that only exists in *this*
    process's ``sys.modules`` (a campaign file loaded by path): fork
    children inherit the module, but spawn/forkserver children cannot
    import it by name, so the reference ships the path instead of the
    function.  Returns None when plain by-reference pickling suffices
    (an importable module) or no file reference is possible.
    """
    module_name = getattr(factory, "__module__", None)
    qualname = getattr(factory, "__qualname__", "")
    if not module_name or "." in qualname or "<" in qualname:
        return None
    if "." in module_name:
        return None                     # package submodules import normally
    # PathFinder (unlike find_spec) ignores sys.modules, which is exactly
    # the question: could a fresh worker import this name?
    try:
        importable = importlib.machinery.PathFinder.find_spec(
            module_name) is not None
    except (ImportError, ValueError):
        importable = False
    if importable and module_name != "__main__":
        return None
    path = getattr(sys.modules.get(module_name), "__file__", None)
    if path is None:
        return None
    return (module_name, path, qualname)


def resolve_factory(factory: Optional[Callable],
                    ref: Optional[FactoryRef]) -> Callable:
    """The worker-side inverse of :func:`factory_ref`."""
    if factory is not None:
        return factory
    module_name, path, qualname = ref
    module = sys.modules.get(module_name)
    if module is None or getattr(module, "__file__", None) != path:
        # Never displace an unrelated module of the same name (a spawn
        # child's own __main__, say): reload the file under an alias.
        alias = (module_name if module is None
                 else f"_campaign_{module_name.strip('_')}")
        module = sys.modules.get(alias)
        if module is None or getattr(module, "__file__", None) != path:
            spec = importlib.util.spec_from_file_location(alias, path)
            if spec is None or spec.loader is None:
                raise ImportError(
                    f"cannot reload campaign module {module_name!r} "
                    f"from {path!r}")
            module = importlib.util.module_from_spec(spec)
            sys.modules[alias] = module
            spec.loader.exec_module(module)
    return getattr(module, qualname)


def _pool_task(factory: Optional[Callable], ref: Optional[FactoryRef],
               point_data: Dict) -> Dict:
    record = run_point(resolve_factory(factory, ref),
                       Point.from_dict(point_data)).to_record()
    # Pool workers are long-lived: push their span buffer to disk after
    # every point so a killed worker loses at most the in-flight point.
    telemetry.flush()
    return record


def _shipment(factory: Callable
              ) -> Optional[Tuple[Optional[Callable], Optional[FactoryRef]]]:
    """How a worker gets ``factory`` — ``(factory, None)`` by pickle,
    ``(None, ref)`` by file reference — or None when it cannot."""
    ref = factory_ref(factory)
    if ref is not None:
        return None, ref
    import pickle
    try:
        pickle.dumps(factory)
    except Exception:  # noqa: BLE001 — any pickling failure means "no"
        return None
    return factory, None


def execute_points(tasks: Sequence[Tuple[Callable, Point]], *,
                   jobs: int = 1,
                   stores: Optional[Mapping[str, ResultStore]] = None,
                   resume: bool = True,
                   progress: Optional[Callable[[CampaignEvent], None]] = None
                   ) -> List[PointResult]:
    """Run every ``(factory, point)`` task, skipping stored ones, fanning
    across processes; the results come back in task order.

    ``stores`` maps a campaign name to its store: each point is resumed
    from, and its record appended to, ``stores[point.campaign]``; a
    campaign without one runs in memory only.  Points are submitted in task order regardless of
    ``jobs``, and each completed point is appended to its store before
    the next result is awaited, so an interrupt preserves all finished
    work.  Each distinct factory is resolved for shipping to workers
    once; one that cannot be shipped runs its points serially in-process.
    """
    notify = progress if progress is not None else (lambda event: None)
    stores = stores or {}
    results: List[Optional[PointResult]] = [None] * len(tasks)

    completed = {}
    if resume:
        completed = {name: store.completed(RESUMABLE_STATUSES)
                     for name, store in stores.items()}
    pending: List[int] = []
    for position, (_factory, point) in enumerate(tasks):
        record = completed.get(point.campaign, {}).get(point.digest())
        if record is not None:
            result = PointResult.from_record(record, point, source="store")
            results[position] = result
            notify(CampaignEvent(kind="skip", point=point,
                                 elapsed=result.elapsed))
        else:
            pending.append(position)

    shipments: Dict[int, Optional[tuple]] = {}     # id(factory) -> shipment
    local, pooled = pending, []
    if jobs > 1 and len(pending) > 1:
        local = []
        for position in pending:
            factory = tasks[position][0]
            if id(factory) not in shipments:
                shipments[id(factory)] = _shipment(factory)
                if shipments[id(factory)] is None:
                    notify(CampaignEvent(
                        kind="fallback",
                        detail=f"factory "
                               f"{getattr(factory, '__name__', factory)!r} "
                               "is not picklable; running its points "
                               "serially in-process"))
            (pooled if shipments[id(factory)] else local).append(position)

    def finish(position: int, result: PointResult) -> None:
        results[position] = result
        store = stores.get(result.point.campaign)
        if store is not None:
            with telemetry.span("campaign.store",
                                hash=result.point.digest()):
                store.append(result.to_record())
        notify(CampaignEvent(kind=result.status, point=result.point,
                             error=result.error, elapsed=result.elapsed))

    for position in local:
        factory, point = tasks[position]
        notify(CampaignEvent(kind="start", point=point))
        finish(position, run_point(factory, point))
    if not pooled:
        return results
    # Only a pool run pays for the pool's stack (about 2 MB of modules).
    from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
    from concurrent.futures.process import BrokenProcessPool

    def submit(pool: ProcessPoolExecutor, position: int):
        factory, point = tasks[position]
        shipped, ref = shipments[id(factory)]
        return pool.submit(_pool_task, shipped, ref, point.to_dict())

    def collect(future, point: Point) -> PointResult:
        try:
            return PointResult.from_record(future.result(), point,
                                           source="pool")
        except Exception as error:  # noqa: BLE001 — the whole job is capture
            cause = ("worker process died"
                     if isinstance(error, BrokenProcessPool)
                     else "worker failed")
            return PointResult(
                point=point, status="error",
                error=f"{cause}: {type(error).__name__}: {error}")

    orphaned: List[int] = []
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        futures = {}
        for position in pooled:
            notify(CampaignEvent(kind="start", point=tasks[position][1]))
            futures[submit(pool, position)] = position
        remaining = set(futures)
        while remaining:
            done, remaining = wait(remaining, return_when=FIRST_COMPLETED)
            for future in done:
                position = futures[future]
                if isinstance(future.exception(), BrokenProcessPool):
                    orphaned.append(position)
                else:
                    finish(position, collect(future, tasks[position][1]))
    # A dying worker breaks the whole pool and fails every unfinished
    # point with it.  Each of those reruns alone in a fresh process, so
    # only the point that kills its own worker is recorded as an error.
    for position in sorted(orphaned):
        with ProcessPoolExecutor(max_workers=1) as pool:
            finish(position, collect(submit(pool, position),
                                     tasks[position][1]))
    return results
