"""Point execution: per-point isolation, a process pool, failure capture.

One :func:`run_point` call turns a scenario factory plus a
:class:`~repro.campaign.grid.Point` into a :class:`PointResult`.  Every
outcome is captured — a clean :class:`~repro.scenario.results.ScenarioRun`,
a deterministic :class:`~repro.scenario.backends.BackendCompatibilityError`
(the sweep's N/A cells) or an arbitrary crash — so one broken point never
kills the sweep.

``jobs > 1`` fans points across a :class:`concurrent.futures
.ProcessPoolExecutor`.  Workers hand back the *serialized* run
(:meth:`ScenarioRun.to_dict`) because a live engine does not cross a
process boundary; the parent reconstructs a metrics-only
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
import pickle
import sys
import traceback
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from inspect import Parameter, signature
from typing import Callable, Dict, List, Optional, Sequence, Tuple

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
        run = record.get("run")
        return cls(point=point, status=record.get("status", "error"),
                   run=None if run is None else ScenarioRun.from_dict(run),
                   error=record.get("error", ""),
                   elapsed=float(record.get("elapsed", 0.0)), source=source)


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


def run_point(factory: Callable, point: Point,
              until: Optional[float] = None) -> PointResult:
    """Execute one grid point in this process, capturing every outcome.

    The factory is called with the point's grid parameters (plus ``seed``
    when its signature takes one); a returned
    :class:`~repro.scenario.builder.Scenario` builder gets the point's
    seed via ``deploy(seed=...)`` before compiling, so every point is
    attributable even when the factory ignores seeding.
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
        run = compiled.run(until=until, backend=point.backend,
                           **point.options_dict())
    except BackendCompatibilityError as error:
        return failed("incompatible", str(error))
    except Exception as error:  # noqa: BLE001 — the whole job is capture
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
               point_data: Dict, until: Optional[float]) -> Dict:
    point = Point.from_dict(point_data)
    record = run_point(resolve_factory(factory, ref), point,
                       until).to_record()
    # Pool workers are long-lived: push their span buffer to disk after
    # every point so a killed worker loses at most the in-flight point.
    telemetry.flush()
    return record


def _poolable(factory: Callable) -> bool:
    try:
        pickle.dumps(factory)
        return True
    except Exception:  # noqa: BLE001 — any pickling failure means "no"
        return False


@dataclass
class ExecutionReport:
    """What :func:`execute_points` did: results in shard order + tallies."""

    results: List[PointResult] = field(default_factory=list)
    executed: int = 0
    skipped: int = 0
    failures: int = 0

    def sorted_results(self) -> List[PointResult]:
        return sorted(self.results, key=lambda result: result.point.index)


def execute_points(factory: Callable, points: Sequence[Point], *,
                   jobs: int = 1, store: Optional[ResultStore] = None,
                   resume: bool = True, until: Optional[float] = None,
                   progress: Optional[Callable[[CampaignEvent], None]] = None
                   ) -> ExecutionReport:
    """Run every point, skipping stored ones, fanning across processes.

    Deterministic shard ordering: points are submitted (and results
    returned) in grid-expansion order regardless of completion order or
    ``jobs``.  Each completed point is appended to ``store`` before the
    next result is awaited, so an interrupt preserves all finished work.
    """
    notify = progress if progress is not None else (lambda event: None)
    report = ExecutionReport()

    completed = {}
    if store is not None and resume:
        completed = store.completed(RESUMABLE_STATUSES)
    pending: List[Point] = []
    for point in points:
        record = completed.get(point.digest())
        if record is not None:
            result = PointResult.from_record(record, point, source="store")
            report.results.append(result)
            report.skipped += 1
            notify(CampaignEvent(kind="skip", point=point,
                                 elapsed=result.elapsed))
        else:
            pending.append(point)

    parallel = jobs > 1 and len(pending) > 1
    ref = factory_ref(factory) if parallel else None
    if parallel and ref is None and not _poolable(factory):
        notify(CampaignEvent(
            kind="fallback",
            detail=f"factory {getattr(factory, '__name__', factory)!r} is "
                   "not picklable; running serially in-process"))
        parallel = False

    def finish(result: PointResult) -> None:
        report.results.append(result)
        report.executed += 1
        if not result.ok:
            report.failures += 1
        if store is not None:
            store.append(result.to_record())
        notify(CampaignEvent(kind=result.status, point=result.point,
                             error=result.error, elapsed=result.elapsed))

    if not parallel:
        for point in pending:
            notify(CampaignEvent(kind="start", point=point))
            finish(run_point(factory, point, until))
        report.results = report.sorted_results()
        return report

    def submit(pool: ProcessPoolExecutor, point: Point):
        return pool.submit(_pool_task, None if ref else factory, ref,
                           point.to_dict(), until)

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

    orphaned: List[Point] = []
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        futures = {}
        for point in pending:
            notify(CampaignEvent(kind="start", point=point))
            futures[submit(pool, point)] = point
        remaining = set(futures)
        while remaining:
            done, remaining = wait(remaining, return_when=FIRST_COMPLETED)
            for future in done:
                if isinstance(future.exception(), BrokenProcessPool):
                    orphaned.append(futures[future])
                else:
                    finish(collect(future, futures[future]))
    # A dying worker breaks the whole pool and fails every unfinished
    # point with it.  Each of those reruns alone in a fresh process, so
    # only the point that kills its own worker is recorded as an error.
    for point in sorted(orphaned, key=lambda point: point.index):
        with ProcessPoolExecutor(max_workers=1) as pool:
            finish(collect(submit(pool, point), point))
    report.results = report.sorted_results()
    return report
