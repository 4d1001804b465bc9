"""The immutable result of :meth:`Scenario.compile`.

A :class:`CompiledScenario` bundles everything an experiment needs —
:class:`~repro.topology.model.Topology`,
:class:`~repro.topology.events.EventSchedule`, workload specs and
:class:`~repro.core.engine.EngineConfig` — and offers the three verbs the
toolchain is built from:

* :meth:`run` — execute on any registered backend (Kollaps or a §5
  baseline), install the workloads, run, collect one
  :class:`~repro.scenario.results.ScenarioRun`;
* :meth:`plan` — the Deployment Generator's orchestrator document (§4);
* :meth:`describe` — round-trip back to the listing-style text DSL.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.scenario.results import ScenarioRun
from repro.topology.events import DynamicEvent, EventAction, EventSchedule
from repro.topology.model import LinkProperties, Topology
from repro.units import format_rate, format_time

__all__ = ["CompiledScenario", "ScenarioRun"]


def _number(value: float) -> str:
    """Shortest decimal that round-trips; never scientific notation."""
    text = repr(float(value))
    if "e" in text or "E" in text:
        text = f"{value:.20f}".rstrip("0")
        if text.endswith("."):
            text += "0"
    return text


@dataclass(frozen=True)
class CompiledScenario:
    """A validated, frozen scenario ready to run, plan or describe."""

    name: str
    topology: Topology
    schedule: EventSchedule
    workloads: Tuple[object, ...]
    config: object                       # EngineConfig
    placement: Optional[Dict[str, str]] = None
    duration: Optional[float] = None
    # Declaration specs retained for describe(); front-ends fill these.
    services: Tuple[object, ...] = ()
    bridge_specs: Tuple[object, ...] = ()
    link_specs: Tuple[object, ...] = ()

    # ------------------------------------------------------------- engine
    def engine(self):
        """A fully wired :class:`~repro.core.engine.EmulationEngine`."""
        from repro.core.engine import EmulationEngine
        return EmulationEngine(self.topology, self.schedule,
                               config=self.config, placement=self.placement)

    def start(self):
        """An engine with every workload installed, the run still deferred.

        The hook point for callers that need to attach dashboards, loggers
        or extra simulator events before time advances; :meth:`run` on the
        default backend is ``start()`` + ``engine.run()`` + collection.
        """
        engine = self.engine()
        for workload in self.workloads:
            workload.install(engine)
        return engine

    def run(self, until: Optional[float] = None, *,
            backend: Union[str, "object"] = "kollaps",
            **backend_options) -> ScenarioRun:
        """Execute this scenario on a backend and collect every result.

        ``backend`` is a registry name (``"kollaps"``, ``"baremetal"``,
        ``"mininet"``, ``"maxinet"``, ``"trickle"``) or a ready
        :class:`~repro.scenario.backends.ExecutionBackend` instance;
        ``backend_options`` are forwarded to the registry factory (e.g.
        ``workers=8`` for maxinet).  Scenario features the chosen backend
        cannot execute raise one aggregated
        :class:`~repro.scenario.backends.BackendCompatibilityError`
        before anything runs.
        """
        from repro.scenario.backends import execute, resolve_backend
        return execute(self, resolve_backend(backend, **backend_options),
                       until)

    def validate_backend(self, backend: Union[str, "object"] = "kollaps",
                         **backend_options) -> List[str]:
        """Every reason ``backend`` cannot run this scenario (empty = ok).

        ``validate`` is optional on duck-typed backends — the required
        lifecycle is prepare/start_workloads/advance/collect/teardown —
        so one without it reports no problems here and is expected to
        raise from ``prepare`` instead.
        """
        from repro.scenario.backends import resolve_backend
        resolved = resolve_backend(backend, **backend_options)
        validate = getattr(resolved, "validate", None)
        return list(validate(self)) if callable(validate) else []

    def default_duration(self) -> float:
        """Explicit ``deploy(duration=...)``, else long enough for events
        and timed workloads, with a 30 s floor."""
        if self.duration is not None:
            return self.duration
        horizon = max([30.0, self.schedule.horizon() + 1.0]
                      + [workload.horizon() for workload in self.workloads])
        return horizon

    # --------------------------------------------------------------- plan
    def plan(self, *, orchestrator: str = "swarm",
             machines: Optional[Sequence[str]] = None,
             strategy: str = "spread"):
        """The Deployment Generator's document for this scenario (§4)."""
        from repro.orchestration import DeploymentGenerator
        generator = DeploymentGenerator(self.topology)
        if machines is None:
            machines = [f"host-{index}"
                        for index in range(self.config.machines)]
        if orchestrator == "swarm":
            return generator.swarm_plan(list(machines), strategy)
        if orchestrator == "kubernetes":
            return generator.kubernetes_plan(list(machines), strategy)
        raise ValueError(f"unknown orchestrator {orchestrator!r}")

    # ---------------------------------------------------------- analysis
    def collapsed(self):
        """The collapsed end-to-end topology (§3's core computation)."""
        from repro.core.collapse import collapse
        return collapse(self.topology)

    def path_table(self) -> str:
        """Canonical, deterministic table of collapsed end-to-end paths.

        Byte-identical for equal topologies however they were built —
        the parity contract between the fluent builder and the text DSL.
        """
        lines = []
        collapsed = self.collapsed()
        for path in sorted(collapsed.paths(),
                           key=lambda p: (p.source, p.destination)):
            properties = path.properties
            line = (f"{path.source} -> {path.destination}: "
                    f"{format_rate(properties.bandwidth)}, "
                    f"{format_time(properties.latency)}")
            if properties.loss:
                line += f", loss {properties.loss:.2%}"
            lines.append(line)
        return "\n".join(lines)

    def compile_script(self, text: str) -> EventSchedule:
        """Compile a THUNDERSTORM script against this scenario's topology."""
        from repro.scenario.thunderstorm import compile_scenario
        return compile_scenario(text, self.topology)

    # ------------------------------------------------------------ describe
    def describe(self) -> str:
        """Round-trip to the listing-style text DSL (Listings 1 and 2).

        ``Scenario.from_text(compiled.describe())`` reconstructs an
        equivalent topology and schedule.
        """
        lines: List[str] = ["experiment:"]
        lines.append("  services:")
        for spec in self.services:
            lines.append(f"    name: {spec.name}")
            lines.append(f"    image: \"{spec.image}\"")
            if spec.replicas != 1:
                lines.append(f"    replicas: {spec.replicas}")
            if spec.command:
                lines.append(f"    command: \"{spec.command}\"")
        if self.bridge_specs:
            lines.append("  bridges:")
            for spec in self.bridge_specs:
                lines.append(f"    name: {spec.name}")
        if self.link_specs:
            lines.append("  links:")
            for spec in self.link_specs:
                lines.extend(self._describe_link(spec))
        if len(self.schedule):
            lines.append("dynamic:")
            for event in self.schedule:
                lines.extend(_describe_event(event))
        return "\n".join(lines) + "\n"

    @staticmethod
    def _describe_link(spec) -> List[str]:
        lines = [f"    orig: {spec.source}", f"    dest: {spec.destination}"]
        lines.append(f"    latency: {_number(spec.latency)}s")
        if spec.up != float("inf"):
            lines.append(f"    up: {_number(spec.up)}bps")
        down = spec.up if spec.down is None else spec.down
        if spec.bidirectional and down != float("inf"):
            lines.append(f"    down: {_number(down)}bps")
        if spec.jitter:
            lines.append(f"    jitter: {_number(spec.jitter)}s")
        if spec.loss:
            lines.append(f"    loss: {_number(spec.loss)}")
        if spec.jitter_distribution != "normal":
            lines.append(
                f"    jitter_distribution: {spec.jitter_distribution}")
        if not spec.bidirectional:
            lines.append("    bidirectional: false")
        if spec.network != "default":
            lines.append(f"    network: {spec.network}")
        return lines


def _describe_event(event: DynamicEvent) -> List[str]:
    """One dynamic stanza; the terminating ``time:`` key closes it."""
    lines: List[str] = []
    if event.action is EventAction.JOIN_NODE:
        lines += ["  action: join", f"  name: {event.name}"]
    elif event.action is EventAction.LEAVE_NODE:
        lines += ["  action: leave", f"  name: {event.name}"]
    elif event.action is EventAction.LEAVE_LINK:
        lines += ["  action: leave", f"  orig: {event.origin}",
                  f"  dest: {event.destination}"]
        if not event.bidirectional:
            lines.append("  bidirectional: false")
    elif event.action is EventAction.JOIN_LINK:
        lines += ["  action: join", f"  orig: {event.origin}",
                  f"  dest: {event.destination}"]
        lines += _property_lines(event.properties)
        if not event.bidirectional:
            lines.append("  bidirectional: false")
    elif event.action is EventAction.SET_LINK:
        lines += [f"  orig: {event.origin}", f"  dest: {event.destination}"]
        changes = dict(event.changes)
        if event.properties is not None:
            # Full-property sets become per-field changes in the text form.
            changes = {"latency": event.properties.latency,
                       "jitter": event.properties.jitter,
                       "loss": event.properties.loss,
                       "bandwidth": event.properties.bandwidth}
        if "latency" in changes:
            lines.append(f"  latency: {_number(changes['latency'])}s")
        if "jitter" in changes:
            lines.append(f"  jitter: {_number(changes['jitter'])}s")
        if "loss" in changes:
            lines.append(f"  loss: {_number(changes['loss'])}")
        if "bandwidth" in changes:
            lines.append("  up: unlimited" if changes["bandwidth"]
                         == float("inf")
                         else f"  up: {_number(changes['bandwidth'])}bps")
        if not event.bidirectional:
            lines.append("  bidirectional: false")
    else:  # pragma: no cover - enum is exhaustive
        raise ValueError(f"unhandled action {event.action}")
    lines.append(f"  time: {_number(event.time)}s")
    return lines


def _property_lines(properties: Optional[LinkProperties]) -> List[str]:
    if properties is None:
        return []
    lines = [f"  latency: {_number(properties.latency)}s"]
    if properties.bandwidth != float("inf"):
        lines.append(f"  up: {_number(properties.bandwidth)}bps")
        lines.append(f"  down: {_number(properties.bandwidth)}bps")
    if properties.jitter:
        lines.append(f"  jitter: {_number(properties.jitter)}s")
    if properties.loss:
        lines.append(f"  loss: {_number(properties.loss)}")
    return lines
