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
* :meth:`path_table` — the collapsed end-to-end paths, byte-identical
  for equal topologies however they were written.

Its one text form is the canonical ``.scn`` document
(:func:`~repro.scenario.dsl.format.dumps_scn`), which the declaration
specs below exist for.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.scenario.results import ScenarioRun
from repro.topology.events import EventSchedule
from repro.topology.model import Topology
from repro.units import format_rate, format_time

__all__ = ["CompiledScenario", "ScenarioRun"]


@dataclass(frozen=True)
class CompiledScenario:
    """A validated, frozen scenario ready to run, plan or dump."""

    name: str
    topology: Topology
    schedule: EventSchedule
    workloads: Tuple[object, ...]
    config: object                       # EngineConfig
    placement: Optional[Dict[str, str]] = None
    duration: Optional[float] = None
    # Declaration specs the .scn dump writes; front-ends fill these.
    services: Tuple[object, ...] = ()
    bridge_specs: Tuple[object, ...] = ()
    link_specs: Tuple[object, ...] = ()

    # ------------------------------------------------------------- engine
    def engine(self):
        """A fully wired :class:`~repro.core.engine.EmulationEngine`."""
        from repro.core.engine import EmulationEngine
        return EmulationEngine(self.topology, self.schedule,
                               config=self.config, placement=self.placement)

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
