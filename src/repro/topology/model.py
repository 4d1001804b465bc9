"""The topology object model: services, bridges, links and the graph.

Terminology follows §3 of the paper:

* **service** — a named set of containers sharing the same image; a service
  with ``replicas = n`` expands into containers ``name.0 … name.(n-1)``.
* **bridge** — a network element (switch or router).  Bridges are never
  emulated directly; they exist only so paths can be computed and then
  collapsed away.
* **link** — a *unidirectional* edge with latency, bandwidth, jitter and
  packet-loss properties.  Declaring a bidirectional link creates two
  mirrored unidirectional links (upload/download bandwidths may differ).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.units import format_rate, format_time

__all__ = [
    "TopologyError",
    "LinkProperties",
    "Service",
    "Bridge",
    "Link",
    "Topology",
]


class TopologyError(ValueError):
    """Raised for malformed or inconsistent topology descriptions."""


@dataclass(frozen=True)
class LinkProperties:
    """Immutable per-link network properties, in SI base units.

    ``latency`` seconds, ``bandwidth`` bits/s, ``jitter`` seconds (standard
    deviation of the latency distribution), ``loss`` a probability in
    [0, 1].  ``jitter_distribution`` names how netem samples per-packet
    delay: ``normal`` (the paper's default) or ``uniform``.
    """

    latency: float = 0.0
    bandwidth: float = float("inf")
    jitter: float = 0.0
    loss: float = 0.0
    jitter_distribution: str = "normal"

    def __post_init__(self) -> None:
        if self.latency < 0:
            raise TopologyError(f"negative latency: {self.latency}")
        if self.bandwidth <= 0:
            raise TopologyError(f"non-positive bandwidth: {self.bandwidth}")
        if self.jitter < 0:
            raise TopologyError(f"negative jitter: {self.jitter}")
        if not 0.0 <= self.loss <= 1.0:
            raise TopologyError(f"loss outside [0,1]: {self.loss}")
        if self.jitter_distribution not in ("normal", "uniform"):
            raise TopologyError(
                f"unknown jitter distribution: {self.jitter_distribution!r}")

    def describe(self) -> str:
        parts = [format_rate(self.bandwidth), format_time(self.latency)]
        if self.jitter:
            parts.append(f"±{format_time(self.jitter)}")
        if self.loss:
            parts.append(f"loss={self.loss:.2%}")
        return " ".join(parts)


@dataclass
class Service:
    """A named set of containers sharing a Docker image."""

    name: str
    image: str = "scratch"
    replicas: int = 1
    command: Optional[str] = None
    tags: Dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.replicas < 1:
            raise TopologyError(
                f"service {self.name!r} needs >=1 replicas, got {self.replicas}")

    def container_names(self) -> List[str]:
        """Expand to concrete container names (``svc.0``, ``svc.1``, ...)."""
        if self.replicas == 1:
            return [self.name]
        return [f"{self.name}.{index}" for index in range(self.replicas)]


@dataclass
class Bridge:
    """A switch/router.  Only identity matters — state is never emulated."""

    name: str


@dataclass(frozen=True, slots=True)
class Link:
    """A unidirectional link ``source -> destination``: an immutable value.

    A :class:`Topology` changes a link by replacing it, so the copies of a
    topology share every link value neither has changed since.
    """

    source: str
    destination: str
    properties: LinkProperties
    network: str = "default"
    link_id: int = -1
    #: The link's text in the topology signature once a second signature
    #: has read it, ``""`` after the first
    #: (:func:`repro.core.collapse.topology_signature`).
    signature: Optional[str] = field(
        default=None, init=False, repr=False, compare=False)

    @property
    def key(self) -> Tuple[str, str]:
        return (self.source, self.destination)

    def describe(self) -> str:
        return f"{self.source}->{self.destination} [{self.properties.describe()}]"


class Topology:
    """A mutable directed multigraph of services, bridges and links.

    The emulation engine snapshots topologies (:meth:`copy`) when
    pre-computing the dynamic graph sequence, so mutation here never races
    with a running experiment.  A copy costs a dict per node and link
    table: links are immutable values, shared until one side replaces one.
    """

    def __init__(self, name: str = "experiment") -> None:
        self.name = name
        self.services: Dict[str, Service] = {}
        self.bridges: Dict[str, Bridge] = {}
        self._links: Dict[Tuple[str, str], Link] = {}
        self._link_ids = itertools.count()

    # ------------------------------------------------------------------ nodes
    def add_service(self, service: Service) -> Service:
        self._check_fresh_name(service.name)
        self.services[service.name] = service
        return service

    def add_bridge(self, bridge: Bridge) -> Bridge:
        self._check_fresh_name(bridge.name)
        self.bridges[bridge.name] = bridge
        return bridge

    def remove_service(self, name: str) -> None:
        if name not in self.services:
            raise TopologyError(f"unknown service: {name!r}")
        service = self.services.pop(name)
        self._drop_links_touching(set(service.container_names()) | {name})

    def remove_bridge(self, name: str) -> None:
        if name not in self.bridges:
            raise TopologyError(f"unknown bridge: {name!r}")
        del self.bridges[name]
        self._drop_links_touching({name})

    def _drop_links_touching(self, names: set) -> None:
        doomed = [key for key in self._links
                  if key[0] in names or key[1] in names]
        for key in doomed:
            del self._links[key]

    def _check_fresh_name(self, name: str) -> None:
        if name in self.services or name in self.bridges:
            raise TopologyError(f"duplicate node name: {name!r}")

    def has_node(self, name: str) -> bool:
        return name in self.services or name in self.bridges

    def node_names(self) -> List[str]:
        return list(self.services) + list(self.bridges)

    # ------------------------------------------------------------------ links
    def add_link(self, source: str, destination: str,
                 properties: LinkProperties, *, bidirectional: bool = True,
                 down_properties: Optional[LinkProperties] = None,
                 network: str = "default") -> List[Link]:
        """Add a link; bidirectional declarations create two mirror links.

        ``down_properties`` overrides the reverse direction (the language's
        distinct ``up``/``down`` bandwidth attributes).
        """
        for endpoint in (source, destination):
            if not self.has_node(endpoint):
                raise TopologyError(f"link endpoint {endpoint!r} is not declared")
        if source == destination:
            raise TopologyError(f"self-loop on {source!r}")
        created = [self._install(source, destination, properties, network)]
        if bidirectional:
            created.append(self._install(destination, source,
                                         down_properties or properties,
                                         network))
        return created

    def _install(self, source: str, destination: str,
                 properties: LinkProperties, network: str) -> Link:
        key = (source, destination)
        if key in self._links:
            raise TopologyError(f"duplicate link {key}")
        link = self._links[key] = Link(source, destination, properties,
                                       network, next(self._link_ids))
        return link

    def remove_link(self, source: str, destination: str, *,
                    bidirectional: bool = True) -> None:
        keys = [(source, destination)]
        if bidirectional:
            keys.append((destination, source))
        for key in keys:
            if key not in self._links:
                raise TopologyError(f"no such link: {key}")
            del self._links[key]

    def get_link(self, source: str, destination: str) -> Link:
        try:
            return self._links[(source, destination)]
        except KeyError:
            raise TopologyError(f"no such link: {(source, destination)}") from None

    def set_link_properties(self, source: str, destination: str,
                            properties: LinkProperties, *,
                            bidirectional: bool = False) -> None:
        self._reproperty(self.get_link(source, destination), properties)
        if bidirectional:
            self._reproperty(self.get_link(destination, source), properties)

    def update_link(self, source: str, destination: str, **changes) -> Link:
        """Replace selected properties of an existing link (e.g. jitter
        only); returns the link that now stands in its place."""
        link = self.get_link(source, destination)
        return self._reproperty(link, replace(link.properties, **changes))

    def _reproperty(self, link: Link, properties: LinkProperties) -> Link:
        """Put a link with ``link``'s ends, id and network and
        ``properties`` in its place."""
        new = self._links[link.key] = Link(
            link.source, link.destination, properties, link.network,
            link.link_id)
        return new

    def links(self) -> Iterator[Link]:
        return iter(self._links.values())

    def link_count(self) -> int:
        return len(self._links)

    # ----------------------------------------------------------- containers
    def container_names(self) -> List[str]:
        """All concrete container names across all services."""
        names: List[str] = []
        for service in self.services.values():
            names.extend(service.container_names())
        return names

    # ------------------------------------------------------------- utilities
    def neighbours(self, node: str) -> List[Tuple[str, Link]]:
        return [(link.destination, link)
                for link in self._links.values() if link.source == node]

    def copy(self) -> "Topology":
        """An independent topology sharing this one's nodes and link values;
        its next link takes the id after the highest one present."""
        clone = Topology(self.name)
        clone.services = dict(self.services)
        clone.bridges = dict(self.bridges)
        clone._links = dict(self._links)
        clone._link_ids = itertools.count(
            max((link.link_id for link in self._links.values()),
                default=-1) + 1)
        return clone

    def describe(self) -> str:
        lines = [f"topology {self.name!r}: "
                 f"{len(self.services)} services, {len(self.bridges)} bridges, "
                 f"{len(self._links)} links"]
        for link in self._links.values():
            lines.append("  " + link.describe())
        return "\n".join(lines)
