"""Pluggable execution backends: one compiled scenario, N systems.

The paper's whole evaluation runs *the same workload on different
systems* — Kollaps against bare metal, Mininet, Maxinet and Trickle (§5).
This module makes that the public contract: every system adapts to one
lifecycle —

    prepare(compiled) -> start_workloads() -> advance(until)
        -> collect(until) -> teardown()

— behind the :class:`ExecutionBackend` protocol, and
:meth:`CompiledScenario.run(backend=...)
<repro.scenario.compiled.CompiledScenario.run>` routes through the
registry here, so ``compiled.run(backend="mininet")`` and
``compiled.run(backend="kollaps")`` are the *only* difference between two
rows of a comparison table.

Each backend declares :class:`BackendCapabilities`; scenario features a
backend cannot execute (packet workloads on Trickle, >1 Gb/s links on
Mininet, dynamic events outside Kollaps, ...) are rejected at
compile-against-backend time with one aggregated
:class:`BackendCompatibilityError` listing every problem, mirroring the
builder's whole-program validation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Hashable, List, Optional, Tuple, Union

from repro import telemetry
from repro.netstack.plane import BULK_PLANE, PACKET_PLANE, probe_planes
from repro.topology.model import TopologyError

__all__ = [
    "BackendCapabilities",
    "BackendCompatibilityError",
    "ExecutionBackend",
    "KollapsBackend",
    "BareMetalBackend",
    "MininetBackend",
    "MaxinetBackend",
    "TrickleBackend",
    "register_backend",
    "backend_names",
    "resolve_backend",
    "execute",
]


@dataclass(frozen=True)
class BackendCapabilities:
    """What a backend can execute; checked against the compiled scenario."""

    packet_plane: bool = True        # can it carry individual packets?
    bulk_plane: bool = True          # can it carry fluid bulk flows?
    dynamic_events: bool = False     # can it apply the dynamic schedule?
    max_link_rate: Optional[float] = None   # bits/s shaping ceiling
    # Max hosts+switches: a single-machine system's scale limit (Table 4's
    # N/A rows).  EngineConfig.machines is a Kollaps deployment hint such
    # a system ignores.
    element_budget: Optional[int] = None


class BackendCompatibilityError(TopologyError):
    """A scenario asks for features its backend cannot execute.

    Raised at :meth:`ExecutionBackend.prepare` time with *every* problem
    listed, so one run surfaces the whole incompatibility at once.
    """

    def __init__(self, backend: str, problems: List[str]) -> None:
        self.backend = backend
        self.problems = list(problems)
        super().__init__(
            f"scenario cannot run on the {backend!r} backend: "
            + "; ".join(self.problems))


class ExecutionBackend:
    """Base adapter: one system behind the common execution lifecycle.

    Subclasses set :attr:`name` and :attr:`capabilities` and implement
    :meth:`_build`, which turns a
    :class:`~repro.scenario.compiled.CompiledScenario` into a live system
    exposing the shared workload surface (``sim``, ``dataplane``,
    ``start_flow``/``stop_flow``, ``fluid``, ``run``).
    """

    name: str = "abstract"
    capabilities: BackendCapabilities = BackendCapabilities()

    def __init__(self) -> None:
        self.compiled = None
        self.system = None

    # ---------------------------------------------------------- validation
    def validate(self, compiled) -> List[str]:
        """Every reason this backend cannot run ``compiled`` (empty = ok)."""
        caps = self.capabilities
        problems: List[str] = []
        if len(compiled.schedule) and not caps.dynamic_events:
            problems.append(
                f"{len(compiled.schedule)} dynamic event(s) scheduled but "
                f"{self.name} cannot apply topology changes at runtime")
        if caps.max_link_rate is not None:
            for link in compiled.topology.links():
                bandwidth = link.properties.bandwidth
                if bandwidth != float("inf") and \
                        bandwidth > caps.max_link_rate:
                    problems.append(
                        f"link {link.source}->{link.destination} requests "
                        f"{bandwidth / 1e9:.2f} Gb/s but {self.name} cannot "
                        f"shape above {caps.max_link_rate / 1e9:.0f} Gb/s")
        if caps.element_budget is not None:
            elements = (len(compiled.topology.container_names())
                        + len(compiled.topology.bridges))
            if elements > caps.element_budget:
                problems.append(
                    f"{elements} emulated elements exceed the {self.name} "
                    f"single-machine budget of {caps.element_budget}")
        for workload in compiled.workloads:
            for plane in sorted(getattr(workload, "planes", ())):
                if plane == PACKET_PLANE and not caps.packet_plane:
                    problems.append(
                        f"workload {workload.key!r} needs a packet plane, "
                        f"which {self.name} does not provide")
                if plane == BULK_PLANE and not caps.bulk_plane:
                    problems.append(
                        f"workload {workload.key!r} needs a bulk-flow "
                        f"plane, which {self.name} does not provide")
        return problems

    # ----------------------------------------------------------- lifecycle
    def prepare(self, compiled):
        """Validate against capabilities, build the system, return it."""
        problems = self.validate(compiled)
        if problems:
            raise BackendCompatibilityError(self.name, problems)
        self.compiled = compiled
        self.system = self._build(compiled)
        return self.system

    def _build(self, compiled):  # pragma: no cover - interface
        raise NotImplementedError

    def start_workloads(self) -> None:
        """Install every workload spec on the prepared system."""
        planes = probe_planes(self.system)
        for workload in self.compiled.workloads:
            needed = frozenset(getattr(workload, "planes", ()))
            missing = sorted(needed - planes)
            if missing:  # belt to validate()'s braces: a probed mismatch
                raise BackendCompatibilityError(self.name, [
                    f"workload {workload.key!r} needs the "
                    f"{'/'.join(missing)} plane(s), which the prepared "
                    f"{type(self.system).__name__} does not expose"])
            workload.install(self.system)

    def advance(self, until: float) -> None:
        """Run the system's clock forward to ``until``."""
        self.system.run(until=until)

    def collect(self, until: float) -> Tuple[Dict[Hashable, object],
                                             Dict[Hashable, "object"]]:
        """Per-workload raw results and :class:`Metrics` records."""
        results: Dict[Hashable, object] = {}
        metrics: Dict[Hashable, object] = {}
        for workload in self.compiled.workloads:
            collected = workload.collect(self.system, until)
            results[workload.key] = collected
            metrics[workload.key] = workload.metrics(
                self.system, until, collected)
        return results, metrics

    def teardown(self) -> None:
        """Release the system (simulated substrates have nothing to free)."""


# ---------------------------------------------------------------------------
# Concrete backends.
# ---------------------------------------------------------------------------
class KollapsBackend(ExecutionBackend):
    """The paper's system: decentralized collapsed emulation (§3-§4)."""

    name = "kollaps"
    capabilities = BackendCapabilities(dynamic_events=True)

    def _build(self, compiled):
        return compiled.engine()


class BareMetalBackend(ExecutionBackend):
    """Ground truth: the physical topology with zero emulation overhead."""

    name = "baremetal"
    capabilities = BackendCapabilities()

    def _build(self, compiled):
        from repro.baselines import BareMetalTestbed
        return BareMetalTestbed(compiled.topology,
                                seed=compiled.config.seed,
                                fluid_dt=compiled.config.fluid_dt)


class MininetBackend(ExecutionBackend):
    """Centralized full-state emulation on one machine (§2, §5)."""

    name = "mininet"

    def __init__(self, *, element_budget: Optional[int] = None) -> None:
        super().__init__()
        from repro.baselines import mininet
        self.capabilities = BackendCapabilities(
            max_link_rate=mininet.MAX_LINK_RATE,
            element_budget=(element_budget if element_budget is not None
                            else mininet.ELEMENT_BUDGET))

    def _build(self, compiled):
        from repro.baselines import BareMetalTestbed, mininet
        return BareMetalTestbed(compiled.topology,
                                seed=compiled.config.seed,
                                fluid_dt=compiled.config.fluid_dt,
                                switch_model=mininet.switch)


class MaxinetBackend(ExecutionBackend):
    """Distributed full-state emulation with an external controller."""

    name = "maxinet"
    capabilities = BackendCapabilities()

    def __init__(self, *, workers: int = 4) -> None:
        super().__init__()
        self._workers = workers

    def _build(self, compiled):
        from repro.baselines import MaxinetEmulator
        return MaxinetEmulator(compiled.topology, workers=self._workers,
                               seed=compiled.config.seed,
                               fluid_dt=compiled.config.fluid_dt)


class _TrickleSystem:
    """The (almost empty) 'system' behind the Trickle backend.

    Trickle is a userspace socket shaper, not a network emulator: it has
    no packet plane, no clock worth advancing, and its long-run rate is
    analytic.  The holder keeps the collapsed paths so workloads can be
    priced against their provisioned end-to-end rate.
    """

    def __init__(self, compiled, collapsed) -> None:
        self.topology = compiled.topology
        self.collapsed = collapsed

    def run(self, until: float) -> None:
        """Nothing to advance: the shaper model is closed-form."""


class TrickleBackend(ExecutionBackend):
    """Userspace socket-level shaping (§2): bulk rates only, analytic.

    Each bulk workload's provisioned rate is its collapsed end-to-end
    bandwidth; the achieved rate follows the send-buffer escape model of
    :class:`~repro.baselines.trickle.TrickleShaper`.
    """

    name = "trickle"
    capabilities = BackendCapabilities(packet_plane=False)

    def __init__(self, *, send_buffer_bytes: Optional[int] = None,
                 physical_link_rate: float = float("inf")) -> None:
        super().__init__()
        from repro.baselines.trickle import TRICKLE_DEFAULT_BUFFER_BYTES
        self.send_buffer_bytes = (send_buffer_bytes
                                  if send_buffer_bytes is not None
                                  else TRICKLE_DEFAULT_BUFFER_BYTES)
        self.physical_link_rate = physical_link_rate
        self._collapsed_for = None
        self._collapsed = None

    def _collapse(self, compiled):
        """The collapsed topology, computed once per compiled scenario."""
        if self._collapsed_for is not compiled:
            self._collapsed_for = compiled
            self._collapsed = compiled.collapsed()
        return self._collapsed

    def validate(self, compiled) -> List[str]:
        problems = super().validate(compiled)
        collapsed = self._collapse(compiled)
        for workload in compiled.workloads:
            planes = frozenset(getattr(workload, "planes", ()))
            if BULK_PLANE not in planes:
                if PACKET_PLANE not in planes:
                    # Packet-plane workloads are already rejected above;
                    # this catches plane-less ones (e.g. custom specs).
                    problems.append(
                        f"workload {workload.key!r} declares no bulk "
                        "plane; trickle only executes flow-style bulk "
                        "workloads")
                continue
            if not hasattr(workload, "source"):
                problems.append(
                    f"workload {workload.key!r} ({type(workload).__name__}) "
                    "has no declared endpoints; trickle only executes "
                    "flow-style bulk workloads")
                continue
            path = collapsed.path(workload.source, workload.destination)
            if path is None:
                problems.append(
                    f"workload {workload.key!r} has no end-to-end path "
                    f"{workload.source} -> {workload.destination}")
            elif path.bandwidth == float("inf") and \
                    getattr(workload, "demand",
                            float("inf")) == float("inf"):
                # A demand-limited flow meters at its own rate; only a
                # greedy sender on an unshaped path has no target at all.
                problems.append(
                    f"workload {workload.key!r} has no provisioned rate on "
                    f"{workload.source} -> {workload.destination}; trickle "
                    "meters against a finite target rate")
        return problems

    def _build(self, compiled):
        return _TrickleSystem(compiled, self._collapse(compiled))

    def start_workloads(self) -> None:
        """Nothing to install: collection is closed-form."""

    def collect(self, until: float):
        from repro.apps.iperf import IperfResult
        from repro.baselines.trickle import TrickleShaper
        from repro.scenario.results import Metrics, Series
        results: Dict[Hashable, object] = {}
        metrics: Dict[Hashable, object] = {}
        for workload in self.compiled.workloads:
            path = self.system.collapsed.path(workload.source,
                                              workload.destination)
            # A demand-limited sender meters at its own rate, not the
            # path's full provision.
            target = min(path.bandwidth,
                         getattr(workload, "demand", float("inf")))
            shaper = TrickleShaper(target,
                                   send_buffer_bytes=self.send_buffer_bytes,
                                   link_rate=self.physical_link_rate)
            achieved = shaper.achieved_rate()
            series = Series(((0.0, achieved), (until, achieved)))
            if getattr(workload, "kind", None) == "iperf":
                results[workload.key] = IperfResult(
                    mean_goodput=achieved, mean_wire_rate=achieved,
                    duration=getattr(workload, "duration", until),
                    series=series)
            else:
                results[workload.key] = achieved
            metrics[workload.key] = Metrics(
                key=workload.key, kind=getattr(workload, "kind", "flow"),
                throughput=series,
                summary={"throughput_mean": achieved,
                         "throughput_min": achieved,
                         "throughput_max": achieved,
                         "target_rate": target,
                         "relative_error": shaper.relative_error()},
                primary="throughput_mean")
        return results, metrics


# ---------------------------------------------------------------------------
# Registry.
# ---------------------------------------------------------------------------
BackendFactory = Callable[..., ExecutionBackend]

_REGISTRY: Dict[str, BackendFactory] = {
    KollapsBackend.name: KollapsBackend,
    BareMetalBackend.name: BareMetalBackend,
    MininetBackend.name: MininetBackend,
    MaxinetBackend.name: MaxinetBackend,
    TrickleBackend.name: TrickleBackend,
}


def register_backend(name: str, factory: BackendFactory) -> None:
    """Add (or replace) a backend under ``name`` for run(backend=name)."""
    _REGISTRY[name] = factory


def backend_names() -> List[str]:
    return sorted(_REGISTRY)


def resolve_backend(backend: Union[str, ExecutionBackend],
                    **options) -> ExecutionBackend:
    """A ready backend instance from a registry name or a live object."""
    if isinstance(backend, str):
        try:
            factory = _REGISTRY[backend]
        except KeyError:
            raise ValueError(
                f"unknown backend {backend!r}; registered: "
                f"{', '.join(backend_names())}") from None
        return factory(**options)
    if options:
        raise TypeError("backend options only apply to registry names, "
                        f"not to a ready {type(backend).__name__} instance")
    required = ("prepare", "start_workloads", "advance", "collect",
                "teardown")
    missing = [verb for verb in required
               if not callable(getattr(backend, verb, None))]
    if missing:
        raise TypeError(
            f"{type(backend).__name__} does not implement the "
            f"ExecutionBackend lifecycle (missing: {', '.join(missing)})")
    return backend


def execute(compiled, backend: ExecutionBackend,
            until: Optional[float] = None):
    """Drive one backend through the full lifecycle; the one run loop."""
    from repro.scenario.results import ScenarioRun
    name = getattr(backend, "name", type(backend).__name__)
    with telemetry.span("backend.prepare", backend=name,
                        scenario=compiled.name):
        system = backend.prepare(compiled)
    # A float, as every sample time is: an int horizon would export as
    # ``5`` beside series times of ``5.0``.
    horizon = (float(until) if until is not None
               else compiled.default_duration())
    try:
        with telemetry.span("backend.start_workloads", backend=name):
            backend.start_workloads()
        with telemetry.span("backend.advance", backend=name,
                            until=horizon):
            backend.advance(horizon)
        with telemetry.span("backend.collect", backend=name):
            results, metrics = backend.collect(horizon)
    finally:
        with telemetry.span("backend.teardown", backend=name):
            backend.teardown()
    config = getattr(compiled, "config", None)
    # Only Kollaps' Emulation Managers exchange metadata.
    metadata = getattr(system, "total_metadata_wire_bytes", None)
    return ScenarioRun(engine=system, until=horizon, results=results,
                       backend=getattr(backend, "name",
                                       type(backend).__name__),
                       scenario=compiled.name, metrics=metrics,
                       seed=getattr(config, "seed", None),
                       machines=getattr(config, "machines", None),
                       metadata_bytes=metadata() if metadata else None)
