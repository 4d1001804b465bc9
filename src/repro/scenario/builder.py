"""The fluent, validating :class:`Scenario` builder.

One choke point for experiment assembly (the paper's single declarative
description, §3): the programmatic topology generators build one
directly, every description format (the listing-style text language, the
dict form, Modelnet XML, ``.scn`` files) lowers to a ``.scn`` document
that loads into one, and everything downstream (engine, deployment
generator, CLI, experiment runners) consumes the
:class:`~repro.scenario.compiled.CompiledScenario` the builder compiles
to.

The builder is deliberately declaration-order-free: links may reference
services declared later, because all cross-referencing is judged at
:meth:`Scenario.compile` by :func:`scenario_findings`, the one rule book a
well-formed scenario keeps, which ``.scn`` validation and linting read
too; compile reports *every* broken rule in one
:class:`~repro.topology.model.TopologyError` instead of failing on the
first.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from repro.topology.events import DynamicEvent, EventAction, EventSchedule
from repro.topology.model import (
    Bridge,
    LinkProperties,
    Service,
    Topology,
    TopologyError,
)
from repro.units import coerce_loss, coerce_rate, coerce_time

__all__ = [
    "Scenario",
    "scenario_findings",
    "set_link",
    "link_down",
    "link_up",
    "node_join",
    "node_leave",
]

Number = Union[str, float, int]


def _capacity(up: Optional[Number], bandwidth: Optional[Number]) -> float:
    """Bits/s of ``up``, else of the symmetric ``bandwidth``; unlimited
    when neither is given."""
    capacity = up if up is not None else bandwidth
    return float("inf") if capacity is None else coerce_rate(capacity)


# --------------------------------------------------------------------------
# Declaration specs: pure data until compile() builds the Topology.
# --------------------------------------------------------------------------
@dataclass(frozen=True)
class ServiceSpec:
    name: str
    image: str = "scratch"
    replicas: int = 1
    command: Optional[str] = None
    tags: Tuple[Tuple[str, str], ...] = ()


@dataclass(frozen=True)
class BridgeSpec:
    name: str


@dataclass(frozen=True)
class LinkSpec:
    """One declared link, in SI base units; ``down`` is the reverse capacity."""

    source: str
    destination: str
    latency: float = 0.0
    up: float = float("inf")
    down: Optional[float] = None      # None: mirror `up` when bidirectional
    jitter: float = 0.0
    loss: float = 0.0
    jitter_distribution: str = "normal"
    bidirectional: bool = True
    network: str = "default"

    def forward_properties(self) -> LinkProperties:
        return LinkProperties(latency=self.latency, bandwidth=self.up,
                              jitter=self.jitter, loss=self.loss,
                              jitter_distribution=self.jitter_distribution)

    def backward_properties(self) -> LinkProperties:
        bandwidth = self.up if self.down is None else self.down
        return LinkProperties(latency=self.latency, bandwidth=bandwidth,
                              jitter=self.jitter, loss=self.loss,
                              jitter_distribution=self.jitter_distribution)


# --------------------------------------------------------------------------
# Event helpers for Scenario.at(), which stamps each with its time.
# --------------------------------------------------------------------------
def set_link(origin: str, destination: str, *,
             latency: Optional[Number] = None,
             bandwidth: Optional[Number] = None,
             up: Optional[Number] = None,
             jitter: Optional[Number] = None,
             loss: Optional[Number] = None,
             bidirectional: bool = True) -> DynamicEvent:
    """Change selected properties of an existing link (others untouched)."""
    changes: Dict[str, float] = {}
    if latency is not None:
        changes["latency"] = coerce_time(latency)
    if jitter is not None:
        changes["jitter"] = coerce_time(jitter)
    if loss is not None:
        changes["loss"] = coerce_loss(loss)
    if up is not None or bandwidth is not None:
        changes["bandwidth"] = _capacity(up, bandwidth)
    if not changes:
        raise TopologyError(
            f"set_link({origin!r}, {destination!r}) changes nothing")
    return DynamicEvent(0.0, EventAction.SET_LINK, origin=origin,
                        destination=destination, changes=changes,
                        bidirectional=bidirectional)


def link_down(origin: str, destination: str, *,
              bidirectional: bool = True) -> DynamicEvent:
    """Remove a link (half of the paper's flapping-link pattern)."""
    return DynamicEvent(0.0, EventAction.LEAVE_LINK, origin=origin,
                        destination=destination, bidirectional=bidirectional)


def link_up(origin: str, destination: str, *,
            latency: Number = 0.0, bandwidth: Optional[Number] = None,
            up: Optional[Number] = None, jitter: Number = 0.0,
            loss: Number = 0.0, bidirectional: bool = True) -> DynamicEvent:
    """(Re-)add a link with the given properties."""
    properties = LinkProperties(latency=coerce_time(latency),
                                bandwidth=_capacity(up, bandwidth),
                                jitter=coerce_time(jitter),
                                loss=coerce_loss(loss))
    return DynamicEvent(0.0, EventAction.JOIN_LINK, origin=origin,
                        destination=destination, properties=properties,
                        bidirectional=bidirectional)


def node_join(name: str) -> DynamicEvent:
    """(Re-)add a service or bridge by name."""
    return DynamicEvent(0.0, EventAction.JOIN_NODE, name=name)


def node_leave(name: str) -> DynamicEvent:
    """Remove a service or bridge (and every link touching it)."""
    return DynamicEvent(0.0, EventAction.LEAVE_NODE, name=name)


# --------------------------------------------------------------------------
# The builder.
# --------------------------------------------------------------------------
class Scenario:
    """Fluent builder for a complete experiment scenario.

    Usage::

        compiled = (Scenario.build("figure1")
                    .service("c1", image="iperf")
                    .service("sv", image="nginx", replicas=2)
                    .bridges("s1", "s2")
                    .link("c1", "s1", latency="10ms", up="10Mbps")
                    .link("s1", "s2", latency="20ms", up="100Mbps")
                    .link("sv", "s2", latency="5ms", up="50Mbps")
                    .at(30, set_link("s1", "s2", latency="80ms"))
                    .workload(ping("c1", "sv.0"), iperf("c1", "sv.0"))
                    .deploy(machines=2, seed=42)
                    .compile())

    Every mutator returns ``self`` so calls chain; :meth:`compile` freezes
    the result into an immutable
    :class:`~repro.scenario.compiled.CompiledScenario`.
    """

    def __init__(self, name: str = "experiment") -> None:
        self.name = name
        self._services: List[ServiceSpec] = []
        self._bridges: List[BridgeSpec] = []
        self._links: List[LinkSpec] = []
        self._events: List[DynamicEvent] = []
        self._scripts: List[str] = []
        self._workloads: List[object] = []
        self._deploy_kwargs: Dict[str, object] = {}
        self._placement: Optional[Dict[str, str]] = None
        self._duration: Optional[float] = None

    # ------------------------------------------------------------ creation
    @classmethod
    def build(cls, name: str = "experiment") -> "Scenario":
        """Start a fresh builder (the canonical entry point)."""
        return cls(name)

    @classmethod
    def from_text(cls, text: str) -> "Scenario":
        """Builder from the paper's listing-style description language."""
        from repro.scenario import frontends
        return frontends.scenario_from_scn(frontends.lower_text(text))

    @classmethod
    def from_dict(cls, description: Dict) -> "Scenario":
        """Builder from the dict form (what a YAML loader would give)."""
        from repro.scenario import frontends
        return frontends.scenario_from_scn(frontends.lower_dict(description))

    @classmethod
    def from_xml(cls, text: str) -> "Scenario":
        """Builder from a Modelnet-style XML topology."""
        from repro.scenario import frontends
        return frontends.scenario_from_scn(frontends.lower_xml(text))

    @classmethod
    def from_file(cls, path: str) -> "Scenario":
        """Builder from a description file, dispatched on suffix."""
        from repro.scenario.frontends import scenario_from_file
        return scenario_from_file(path)

    # --------------------------------------------------------------- nodes
    def service(self, name: str, *, image: str = "scratch",
                replicas: int = 1, command: Optional[str] = None,
                tags: Optional[Dict[str, str]] = None) -> "Scenario":
        """Declare a service: ``replicas`` containers sharing ``image``."""
        self._services.append(ServiceSpec(
            name=name, image=image, replicas=int(replicas), command=command,
            tags=tuple(sorted((tags or {}).items()))))
        return self

    def bridge(self, name: str) -> "Scenario":
        """Declare one switch/router."""
        self._bridges.append(BridgeSpec(name))
        return self

    def bridges(self, *names: str) -> "Scenario":
        """Declare several switches/routers at once."""
        for name in names:
            self.bridge(name)
        return self

    # --------------------------------------------------------------- links
    def link(self, source: str, destination: str, *,
             latency: Number = 0.0, bandwidth: Optional[Number] = None,
             up: Optional[Number] = None, down: Optional[Number] = None,
             jitter: Number = 0.0, loss: Number = 0.0,
             jitter_distribution: str = "normal", bidirectional: bool = True,
             network: str = "default") -> "Scenario":
        """Declare a link.

        Numeric values are SI base units (seconds, bits/s); strings carry
        units (``"10ms"``, ``"100Mbps"``, ``"2%"``) and are parsed through
        :mod:`repro.units`.  ``up``/``down`` give asymmetric capacities;
        ``bandwidth`` is the symmetric shorthand.  ``down`` defaults to
        ``up`` when the link is bidirectional.
        """
        self._links.append(LinkSpec(
            source=source, destination=destination,
            latency=coerce_time(latency), up=_capacity(up, bandwidth),
            down=None if down is None else coerce_rate(down),
            jitter=coerce_time(jitter), loss=coerce_loss(loss),
            jitter_distribution=jitter_distribution,
            bidirectional=bool(bidirectional), network=network))
        return self

    def unlink(self, source: str, destination: str) -> "Scenario":
        """Withdraw a previously declared link (either direction)."""
        for index, spec in enumerate(self._links):
            if {spec.source, spec.destination} == {source, destination}:
                del self._links[index]
                return self
        raise TopologyError(
            f"no declared link between {source!r} and {destination!r}")

    # -------------------------------------------------------------- events
    def at(self, time: Number, *events: DynamicEvent) -> "Scenario":
        """Schedule dynamic events at ``time`` (seconds or ``"90s"``-style).

        Each event is stamped as a copy, so one helper's event scheduled
        at two times is two independent events."""
        stamp = coerce_time(time)
        if not events:
            raise TopologyError(f"at({time!r}) schedules no events")
        for event in events:
            if not isinstance(event, DynamicEvent):
                raise TopologyError(
                    f"at() takes DynamicEvent, got {event!r}")
            self._events.append(dataclasses.replace(
                event, time=stamp, changes=dict(event.changes)))
        return self

    def event(self, event: DynamicEvent) -> "Scenario":
        """Append an already-timed :class:`DynamicEvent` (escape hatch)."""
        coerce_time(event.time)
        self._events.append(event)
        return self

    def script(self, text: str) -> "Scenario":
        """Attach a THUNDERSTORM scenario script (compiled at compile())."""
        self._scripts.append(text)
        return self

    # ----------------------------------------------------------- workloads
    def workload(self, *specs) -> "Scenario":
        """Attach workload specs (see :mod:`repro.scenario.workloads`)."""
        from repro.scenario.workloads import Workload
        for spec in specs:
            if not isinstance(spec, Workload):
                raise TopologyError(
                    f"workload() takes Workload specs, got {spec!r}")
            self._workloads.append(spec)
        return self

    # ---------------------------------------------------------- deployment
    def deploy(self, *, machines: Optional[int] = None,
               seed: Optional[int] = None,
               placement: Optional[Dict[str, str]] = None,
               duration: Optional[Number] = None,
               **tunables) -> "Scenario":
        """Configure the deployment: cluster size, seed and engine tunables.

        ``tunables`` accepts any :class:`~repro.core.engine.EngineConfig`
        field (``loop_period``, ``time_dilation``,
        ``enforce_bandwidth_sharing``, ...); unknown names fail immediately.
        Calls are incremental: only the settings named in this call change,
        so a CLI can override one knob of a pre-configured scenario without
        resetting the rest to defaults.
        """
        from repro.core.engine import EngineConfig
        valid = {f.name for f in dataclasses.fields(EngineConfig)}
        unknown = sorted(set(tunables) - valid)
        if unknown:
            raise TypeError(
                f"unknown deploy() tunables {unknown}; valid: {sorted(valid)}")
        self._deploy_kwargs.update(tunables)
        if machines is not None:
            self._deploy_kwargs["machines"] = int(machines)
        if seed is not None:
            self._deploy_kwargs["seed"] = int(seed)
        if placement is not None:
            self._placement = dict(placement)
        if duration is not None:
            self._duration = coerce_time(duration)
        return self

    # -------------------------------------------------------- compilation
    def findings(self) -> List["Finding"]:
        """What :func:`scenario_findings` says of the declarations so far,
        pointed as in the ``.scn`` document they dump to (an event by its
        place among the declared ones)."""
        return scenario_findings(
            services=[(f"services[{index}]", spec.name, spec.replicas)
                      for index, spec in enumerate(self._services)],
            bridges=[(f"bridges[{index}]", spec.name)
                     for index, spec in enumerate(self._bridges)],
            links=[(f"links[{index}]", (("orig", spec.source),
                                        ("dest", spec.destination)),
                    spec.bidirectional)
                   for index, spec in enumerate(self._links)],
            events=[(f"events[{index}]", event.time, event.action.value,
                     (("orig", event.origin), ("dest", event.destination),
                      ("name", event.name)))
                    for index, event in enumerate(self._events)],
            workloads=[(f"workloads[{index}]", workload.key,
                        workload.containers())
                       for index, workload in enumerate(self._workloads)],
            deploy=dict(self._deploy_kwargs, placement=self._placement),
            duration=self._duration,
            capacities=[
                *((f"links[{index}].{end}", capacity)
                  for index, spec in enumerate(self._links)
                  for end, capacity in (("up", spec.up), ("down", spec.down))
                  if capacity is not None),
                *((f"events[{index}].{field}", capacity)
                  for index, event in enumerate(self._events)
                  for field, capacity in _event_capacities(event))])

    def compile(self) -> "CompiledScenario":
        """Validate everything and freeze into a :class:`CompiledScenario`.

        Validation is whole-program: every error :meth:`findings` reports
        is listed, with its pointer, in one :class:`TopologyError`.
        """
        from repro.core.engine import EngineConfig
        from repro.scenario.compiled import CompiledScenario

        errors = [f"{pointer}: {message}"
                  for pointer, severity, message in self.findings()
                  if severity == ERROR]
        if errors:
            raise TopologyError(f"scenario {self.name!r} is invalid:\n  "
                                + "\n  ".join(errors))
        topology = Topology(self.name)
        for spec in self._services:
            topology.add_service(Service(
                name=spec.name, image=spec.image, replicas=spec.replicas,
                command=spec.command, tags=dict(spec.tags)))
        for spec in self._bridges:
            topology.add_bridge(Bridge(spec.name))
        for spec in self._links:
            topology.add_link(
                spec.source, spec.destination, spec.forward_properties(),
                bidirectional=spec.bidirectional,
                down_properties=(spec.backward_properties()
                                 if spec.bidirectional else None),
                network=spec.network)

        schedule = EventSchedule(list(self._events))
        config = EngineConfig(**self._deploy_kwargs)
        for text in self._scripts:
            for event in script_events(text, topology, config.time_dilation):
                schedule.add(event)

        return CompiledScenario(
            name=self.name, topology=topology, schedule=schedule,
            workloads=tuple(self._workloads), config=config,
            placement=(dict(self._placement)
                       if self._placement is not None else None),
            duration=self._duration,
            services=tuple(self._services), bridge_specs=tuple(self._bridges),
            link_specs=tuple(self._links))


def script_events(text: str, topology: Topology,
                  time_dilation: float) -> EventSchedule:
    """A THUNDERSTORM script compiled against ``topology``; a
    :class:`TopologyError` when it is malformed or sets a capacity §6
    refuses."""
    from repro.scenario.thunderstorm import compile_scenario
    events = compile_scenario(text, topology)
    for event in events:
        for pointer, _, refusal in _feasibility(time_dilation, [
                (f"script event at t={event.time:g}s on {event.origin}--"
                 f"{event.destination}", capacity)
                for _, capacity in _event_capacities(event)]):
            raise TopologyError(f"{pointer}: {refusal}")
    return events


def _event_capacities(event: DynamicEvent):
    """``(field, bits/s)`` for each capacity an event sets, keyed as in
    its ``.scn`` form."""
    if "bandwidth" in event.changes:
        yield "changes.bandwidth", event.changes["bandwidth"]
    if event.properties is not None:
        yield "properties.bandwidth", event.properties.bandwidth


# --------------------------------------------------------------------------
# The rule book.
# --------------------------------------------------------------------------
ERROR = "error"
WARNING = "warning"
#: ``(pointer, severity, message)``: one broken rule, pointed into the
#: scenario's ``.scn`` document (``links[2].dest``).
Finding = Tuple[str, str, str]


def scenario_findings(*, services, bridges, links, events, workloads,
                      deploy: Optional[Dict[str, object]] = None,
                      duration: Optional[float] = None,
                      capacities=()) -> List[Finding]:
    """Every cross-reference rule a scenario's declarations break.

    Each section lists its entries in order, each headed by its pointer:
    ``services`` ``(pointer, name, replicas)``, ``bridges`` ``(pointer,
    name)``, ``links`` ``(pointer, ends, bidirectional)``, ``events``
    ``(pointer, time, action, ends)`` and ``workloads`` ``(pointer, key,
    containers)``, where ``ends`` are the ``(key, node)`` pairs an entry
    names (a node that is not a string is left out) and a time nobody can
    read is ``None`` (taken as the start).  ``deploy`` maps the deployment
    settings whose type is right (``machines``, ``placement`` and any
    :class:`~repro.core.engine.EngineConfig` tunable) to their values, and
    ``capacities`` every ``(pointer, bits/s)`` a link or an event names:
    no topology state holds another, so §6 is judged without building one.
    docs/scenarios.md tables the rules; what an event does to a link
    (removing one twice, say) is judged when the engine pre-computes the
    topology's states.
    """
    out: List[Finding] = []
    declared: Dict[str, str] = {}       # node name -> its first pointer
    containers, replicated = set(), {}
    for pointer, name, replicas in services:
        names = Service(name, replicas=replicas).container_names()
        containers.update(names)
        if replicas > 1:
            replicated[name] = names
    nodes = [(pointer, name) for pointer, name, _ in services] + list(bridges)
    for pointer, name in nodes:
        if name in declared:
            out.append((pointer, ERROR, f"duplicate node name {name!r} (first "
                                        f"declared at {declared[name]})"))
        declared.setdefault(name, pointer)
    if not services:
        out.append(("services", ERROR,
                    "a scenario needs at least one service"))

    touched = set()                     # every node a link or an event names
    directed: Dict[Tuple[str, str], str] = {}   # (from, to) -> its pointer
    for pointer, ends, bidirectional in links:
        ends = [(end, node) for end, node in ends if isinstance(node, str)]
        for end, node in ends:
            touched.add(node)
            if node not in declared:
                out.append((f"{pointer}.{end}", ERROR,
                            f"undeclared node {node!r} (declared: "
                            + (", ".join(sorted(declared)) or "none") + ")"))
        if len(ends) != 2:
            continue
        (_, source), (_, destination) = ends
        if source == destination:
            out.append((pointer, ERROR, f"self-loop on {source!r}"))
            continue
        ways = [(source, destination)]
        if bidirectional:
            ways.append((destination, source))
        clash = next((way for way in ways if way in directed), None)
        if clash is not None:
            out.append((pointer, ERROR, f"duplicate link {clash} (first "
                                        f"declared at {directed[clash]})"))
        for way in ways:
            directed.setdefault(way, pointer)

    # A node exists from its declaration, or from the event joining it on.
    known = set(declared)
    for pointer, _, action, ends in sorted(
            events, key=lambda entry: -1.0 if entry[1] is None else entry[1]):
        for end, node in ends:
            if not isinstance(node, str):
                continue
            touched.add(node)
            if action == "join" and end == "name":
                known.add(node)
            elif node not in known:
                out.append((f"{pointer}.{end}", ERROR,
                            f"event references undeclared node {node!r}"))

    keys: Dict = {}
    for pointer, key, names in workloads:
        for node in names:
            if node in containers:
                continue
            what = (f"a service of containers {', '.join(replicated[node])}"
                    if node in replicated else
                    "a bridge" if node in declared else None)
            out.append((pointer, ERROR, f"workload endpoint {node!r} " + (
                f"is {what}, not a container" if what else
                "names no declared service or container")))
        keys[key] = keys.get(key, 0) + 1
    out.extend(("workloads", ERROR, f"duplicate workload key {key!r} "
                                    f"({count} declarations)")
               for key, count in keys.items() if count > 1)
    out.extend(_deploy_findings(deploy or {}, containers, capacities))

    out.extend((declared[name], WARNING,
                f"node {name!r} is declared but never linked")
               for name in sorted(declared) if name not in touched)
    out.extend((f"{pointer}.time", WARNING,
                f"event at t={time:g}s never fires within the configured "
                f"duration of {duration:g}s")
               for pointer, time, _, _ in events
               if None not in (time, duration) and time > duration)
    return out


def _deploy_findings(deploy: Dict[str, object], containers,
                     capacities) -> List[Finding]:
    """The deployment values the engine would refuse at construction."""
    out: List[Finding] = []
    for key in ("loop_period", "fluid_dt"):
        value = deploy.get(key)
        if isinstance(value, (int, float)) and not value > 0:
            out.append((f"deploy.{key}", ERROR,
                        f"expected a period > 0 seconds, got {value}"))
    dilation = deploy.get("time_dilation", 1.0)
    if isinstance(dilation, (int, float)):
        out.extend(_feasibility(dilation, capacities))
    machines = deploy.get("machines", 1)
    if machines < 1:
        out.append(("deploy.machines", ERROR,
                    f"expected an integer >= 1, got {machines}"))
    placement = deploy.get("placement")
    if placement is None or machines < 1:
        return out
    from repro.cluster import Cluster
    names = Cluster(machines).machine_names()
    out.extend(("deploy.placement", ERROR,
                f"{container!r} is placed on {machine!r}, which is no "
                f"machine of the cluster ({', '.join(names)})")
               for container, machine in placement.items()
               if machine not in names)
    unplaced = sorted(containers - set(placement))
    if unplaced:
        out.append(("deploy.placement", ERROR,
                    f"leaves {', '.join(unplaced)} unplaced (a placement "
                    "names a machine for every container)"))
    return out


def _feasibility(dilation: float, capacities) -> List[Finding]:
    """§6 (:func:`~repro.cluster.machines.infeasibility`, which the engine
    reads too) over ``(pointer, bits/s)`` capacities."""
    from repro.cluster.machines import infeasibility
    refusal = infeasibility(dilation)
    if refusal is not None:
        return [("deploy.time_dilation", ERROR, refusal)]
    return [(pointer, ERROR, refusal) for pointer, capacity in capacities
            if (refusal := infeasibility(dilation, capacity)) is not None]
