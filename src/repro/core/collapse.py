"""Network collapsing: reduce a full topology to end-to-end virtual links.

This is the paper's first key insight (§1, Figure 1): applications only
observe emergent end-to-end properties, so the emulator can discard router
and switch state entirely.  The collapse answers, for every ordered pair of
containers, with the shortest path through the declared bridges:

* the composed end-to-end properties (:class:`PathProperties`),
* the identifiers of the constituent physical links — these are what the
  bandwidth-sharing model later uses to detect flows competing on a shared
  link even though the topology has been collapsed away.

Shortest paths are computed with Dijkstra's algorithm [38] over link latency
(ties broken by hop count, then lexicographic next-hop so that the collapse
is deterministic across Emulation Managers without coordination — a
requirement for the fully decentralized design).

What is kept, and what is derived
---------------------------------

:func:`collapse` keeps what Dijkstra produces — one predecessor-link tree
per source *service* — plus the topology's ``link_id -> LinkProperties``
map at that instant: ``O(services × nodes)`` memory, whatever the number
of containers.  A :class:`CollapsedPath` is derived the first time someone
asks for the pair (:meth:`CollapsedTopology.path` walks the tree and
composes the links in traversal order, ``O(path length)``) and remembered;
an experiment that talks over 30 pairs of an 82 082-pair table builds 30.
:meth:`~CollapsedTopology.pair_count` counts reachable containers per tree
without building any; :meth:`~CollapsedTopology.paths` builds whatever is
still missing.

Memoization
-----------

Campaign grid sweeps re-collapse near-identical graphs constantly: every
point of a bandwidth sweep shares one routing structure, and every dynamic
state that only changes link capacities keeps its shortest paths.  The
module therefore memoizes :func:`collapse` results in a bounded LRU keyed
by a structural topology hash (:func:`topology_signature`):

* **hit** — a structurally identical topology (same nodes, links, ids and
  *all* properties) shares the cached trees, property map and every path
  built so far: ``O(signature)`` = ``O(V + E)``;
* **incremental** — a topology whose *routing* inputs (nodes, link ids,
  latencies) match a cached entry but whose non-routing properties
  (bandwidth, jitter, loss) differ shares the donor's trees and only
  rebuilds the ``O(E)`` property map — no Dijkstra runs;
* **miss** — anything else runs one Dijkstra per source service and
  populates the cache.

The LRU holds 128 entries; ``collapse(memo=False)`` bypasses it and
:func:`clear_collapse_cache` drops everything (``repro campaign ...
--fresh`` calls it).  Telemetry counters ``collapse.memo_hits`` /
``collapse.memo_misses`` / ``collapse.incremental_recomputes`` /
``collapse.memo_invalidations`` expose the cache's behaviour and
``collapse.paths_built`` the pairs actually derived; see
``docs/performance.md``.
"""

from __future__ import annotations

import hashlib
import heapq
import threading
from collections import Counter, OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro import telemetry
from repro.core.properties import PathProperties, compose_path
from repro.topology.model import (Link, LinkProperties, Topology,
                                  TopologyError)

__all__ = ["CollapsedPath", "CollapsedTopology", "collapse",
           "topology_signature", "clear_collapse_cache",
           "collapse_cache_stats"]

#: Entry bound of the memo LRU.
_CACHE_CAPACITY = 128


@dataclass(frozen=True)
class CollapsedPath:
    """One virtual end-to-end link between two containers.

    ``properties`` are the composed end-to-end values in SI base units
    (seconds, bits/s, loss probability); ``link_ids`` are the constituent
    physical links in traversal order; ``node_path`` the traversed node
    names.  Instances are immutable and safely shared between memoized
    :class:`CollapsedTopology` views.
    """

    source: str
    destination: str
    properties: PathProperties
    link_ids: Tuple[int, ...]
    node_path: Tuple[str, ...]

    @property
    def latency(self) -> float:
        return self.properties.latency

    @property
    def bandwidth(self) -> float:
        return self.properties.bandwidth


class _Routing:
    """What Dijkstra produces for one routing structure, nothing per pair.

    ``trees[service][node]`` is the link the shortest path from ``service``
    enters ``node`` by (the origin has no entry); ``loops[service]`` is the
    two-link path between replicas of one service.  Only names, endpoints
    and link ids are read from the links, so every topology with the same
    routing signature can share one instance — link *properties* belong
    to the :class:`CollapsedTopology`.  Never mutated once built.
    """

    __slots__ = ("containers", "service_of", "sources", "members", "trees",
                 "loops")

    def __init__(self, topology: Topology,
                 sources: Optional[Sequence[str]]) -> None:
        graph = _service_graph(topology)
        self.containers = topology.container_names()
        self.service_of = {name: name.split(".")[0]
                           for name in self.containers}
        wanted = self.containers if sources is None else sources
        #: Container -> service for the containers paths originate at, in
        #: table (source-major) order.
        self.sources = {name: self.service_of[name] for name in wanted
                        if name in self.service_of}
        #: Containers per service.
        self.members = Counter(self.service_of.values())
        # One Dijkstra per *service* (containers of a service share paths).
        needed = sorted(set(self.sources.values()))
        self.trees = {service: _dijkstra(graph, service)
                      for service in needed}
        self.loops = {service: _intra_service_path(graph, service)
                      for service in needed if self.members[service] > 1}

    def links(self, source: str, destination: str) -> Optional[List[Link]]:
        """The links from ``source`` to ``destination`` in traversal
        order, ``None`` when there is no such path in this table."""
        service = self.sources.get(source)
        target = self.service_of.get(destination)
        if service is None or target is None or source == destination:
            return None
        if target == service:
            return self.loops.get(service)
        return _links_to(self.trees[service], target)

    def pair_count(self) -> int:
        """Ordered pairs with a path: ``O(source services × services)``."""
        reach = {}
        for service, tree in self.trees.items():
            reach[service] = sum(count
                                 for target, count in self.members.items()
                                 if target in tree)
            if self.loops.get(service) is not None:
                reach[service] += self.members[service] - 1
        return sum(reach[service] for service in self.sources.values())


class CollapsedTopology:
    """All-pairs collapsed view of a topology at one instant.

    Holds the shortest-path trees and the ``link_id -> LinkProperties``
    map of that instant; a :class:`CollapsedPath` is built on the first
    :meth:`path` lookup of its pair and remembered.  Memoized lookups hand
    the same trees (and, for identical topologies, the same built paths)
    to several ``CollapsedTopology`` wrappers, each referencing the live
    :class:`~repro.topology.model.Topology` it was requested for; what is
    shared only ever gains immutable values that depend on nothing but the
    topology, so sharing is invisible.
    """

    def __init__(self, topology: Topology, routing: _Routing,
                 properties: Dict[int, LinkProperties],
                 built: Dict[Tuple[str, str], CollapsedPath]) -> None:
        self.topology = topology
        self._routing = routing
        self._properties = properties
        self._built = built

    def path(self, source: str, destination: str) -> Optional[CollapsedPath]:
        """The collapsed path, or ``None`` when unreachable.

        A dict hit once the pair has been asked for; the first lookup
        walks the source's tree, ``O(path length)``.
        """
        key = (source, destination)
        path = self._built.get(key)
        if path is None:
            links = self._routing.links(source, destination)
            if links is None:
                return None
            by_id = self._properties
            path = self._built[key] = CollapsedPath(
                source=source,
                destination=destination,
                properties=compose_path([by_id[link.link_id]
                                         for link in links]),
                link_ids=tuple(link.link_id for link in links),
                node_path=(source,) + tuple(
                    link.destination for link in links[:-1]) + (destination,),
            )
            if telemetry.enabled():
                telemetry.metrics.counter("collapse.paths_built").inc()
        return path

    def require_path(self, source: str, destination: str) -> CollapsedPath:
        path = self.path(source, destination)
        if path is None:
            raise TopologyError(f"no path from {source!r} to {destination!r}")
        return path

    def rtt(self, source: str, destination: str) -> float:
        """Round-trip latency in seconds: forward plus reverse collapsed
        latency."""
        forward = self.require_path(source, destination)
        backward = self.require_path(destination, source)
        return forward.latency + backward.latency

    def paths(self) -> List[CollapsedPath]:
        """Every path of the table, source-major in container order —
        builds the ones nobody has asked for yet (``O(pairs)``)."""
        routing = self._routing
        found = []
        for source in routing.sources:
            for destination in routing.containers:
                path = self.path(source, destination)
                if path is not None:
                    found.append(path)
        return found

    def pair_count(self) -> int:
        """How many ordered pairs the table answers for; builds none."""
        return self._routing.pair_count()

    def reachable_from(self, source: str) -> List[str]:
        routing = self._routing
        return [name for name in routing.containers
                if routing.links(source, name) is not None]


# ---------------------------------------------------------------------------
# Structural topology hashing.
# ---------------------------------------------------------------------------

def topology_signature(topology: Topology, *,
                       routing_only: bool = False) -> str:
    """A structural hash of ``topology`` (hex digest, 32 chars).

    Two topologies with equal signatures collapse identically: the hash
    covers services (name, replicas), bridges, and every link's endpoints,
    id and properties.  With ``routing_only=True`` only the inputs of the
    shortest-path computation are hashed — nodes, link ids and latencies —
    so two topologies differing only in bandwidth/jitter/loss share a
    routing signature (they have the same paths, with different composed
    properties).  The topology *name* is deliberately excluded: renames
    don't change behaviour.

    Complexity ``O(V log V + E log E)`` (sorting for order independence).
    """
    digest = hashlib.blake2b(digest_size=16)
    for name in sorted(topology.services):
        service = topology.services[name]
        digest.update(f"S{name}*{service.replicas};".encode())
    for name in sorted(topology.bridges):
        digest.update(f"B{name};".encode())
    links = sorted(topology.links(),
                   key=lambda link: (link.source, link.destination))
    for link in links:
        properties = link.properties
        digest.update(f"L{link.source}>{link.destination}#{link.link_id}"
                      f"@{properties.latency!r}".encode())
        if not routing_only:
            digest.update(
                f"|{properties.bandwidth!r},{properties.jitter!r},"
                f"{properties.loss!r},{properties.jitter_distribution},"
                f"{link.network}".encode())
        digest.update(b";")
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# The memo cache.
# ---------------------------------------------------------------------------

@dataclass
class _CacheEntry:
    """What views of one memoized topology share (see
    :class:`CollapsedTopology`)."""

    routing: _Routing
    properties: Dict[int, LinkProperties]
    built: Dict[Tuple[str, str], CollapsedPath]


_cache_lock = threading.RLock()
_cache: "OrderedDict[tuple, _CacheEntry]" = OrderedDict()
# (routing signature, sources key) -> cache key of an entry sharing that
# routing — the donor for incremental property-only recomputes.
_routing_index: Dict[tuple, tuple] = {}


def clear_collapse_cache() -> None:
    """Drop every memoized collapse (``campaign --fresh``, tests).

    Counts the dropped entries into ``collapse.memo_invalidations`` when
    telemetry is enabled.
    """
    with _cache_lock:
        dropped = len(_cache)
        _cache.clear()
        _routing_index.clear()
    if dropped and telemetry.enabled():
        telemetry.metrics.counter("collapse.memo_invalidations").inc(dropped)


def collapse_cache_stats() -> Dict[str, int]:
    """Current memo occupancy: ``{"entries": n, "capacity": max}``."""
    with _cache_lock:
        return {"entries": len(_cache), "capacity": _CACHE_CAPACITY}


def _cache_store(key: tuple, routing_key: tuple,
                 result: CollapsedTopology) -> None:
    entry = _CacheEntry(result._routing, result._properties, result._built)
    evicted = 0
    with _cache_lock:
        _cache[key] = entry
        _cache.move_to_end(key)
        _routing_index[routing_key] = key
        while len(_cache) > _CACHE_CAPACITY:
            old_key, _ = _cache.popitem(last=False)
            evicted += 1
            for routing, target in list(_routing_index.items()):
                if target == old_key:
                    del _routing_index[routing]
    if evicted and telemetry.enabled():
        telemetry.metrics.counter("collapse.memo_invalidations").inc(evicted)


# ---------------------------------------------------------------------------
# collapse() — the public entry point.
# ---------------------------------------------------------------------------

def collapse(topology: Topology, *,
             sources: Optional[Sequence[str]] = None,
             memo: bool = True) -> CollapsedTopology:
    """Collapse ``topology`` into end-to-end virtual links.

    ``sources`` restricts the computation to paths originating at the given
    containers — each Emulation Manager only computes the part of the
    topology affecting its local containers (§3), which this parameter
    models.  With the default, all ordered container pairs are answered.

    ``memo=False`` bypasses the module cache entirely (neither read nor
    populated) — used by the precompute ablation and the cold-path
    benchmark, which must measure a genuine from-scratch collapse.

    Determinism: the same topology always yields the same path table —
    Dijkstra ties break on hop count then lexicographic node order, so
    every decentralized manager derives an identical collapse.  Complexity
    is one Dijkstra per source *service* (``O((V + E) log V)`` each) plus
    the ``O(E)`` property map; no per-pair work happens until a pair is
    looked up.  Memo hits are ``O(signature)`` = ``O(V + E)``, incremental
    reuses ``O(V + E)`` as well.
    """
    if not memo:
        return _collapse_full(topology, sources)

    recording = telemetry.enabled()
    started = telemetry.clock() if recording else 0.0
    sources_key = tuple(sources) if sources is not None else None
    full_key = (topology_signature(topology), sources_key)
    with _cache_lock:
        entry = _cache.get(full_key)
        if entry is not None:
            _cache.move_to_end(full_key)
    if entry is not None:
        if recording:
            registry = telemetry.metrics
            registry.counter("collapse.memo_hits").inc()
            registry.counter("collapse.memo_seconds").inc(
                telemetry.clock() - started)
        return CollapsedTopology(topology, entry.routing, entry.properties,
                                 entry.built)

    if recording:
        telemetry.metrics.counter("collapse.memo_misses").inc()
    routing_key = (topology_signature(topology, routing_only=True),
                   sources_key)
    with _cache_lock:
        donor_key = _routing_index.get(routing_key)
        donor = _cache.get(donor_key) if donor_key is not None else None
    if donor is not None:
        # Same nodes, link ids and latencies: the donor's trees are this
        # topology's trees, only the composed properties differ.
        result = CollapsedTopology(topology, donor.routing,
                                   _properties_by_id(topology), {})
        _cache_store(full_key, routing_key, result)
        if recording:
            registry = telemetry.metrics
            registry.counter("collapse.incremental_recomputes").inc()
            registry.counter("collapse.incremental_seconds").inc(
                telemetry.clock() - started)
        return result

    result = _collapse_full(topology, sources)
    _cache_store(full_key, routing_key, result)
    return result


def _collapse_full(topology: Topology,
                   sources: Optional[Sequence[str]]) -> CollapsedTopology:
    """The from-scratch collapse (one Dijkstra per source service)."""
    recording = telemetry.enabled()
    started = telemetry.clock() if recording else 0.0
    trace = telemetry.span("collapse.all_pairs",
                           containers=len(topology.container_names()))
    routing = _Routing(topology, sources)
    result = CollapsedTopology(topology, routing,
                               _properties_by_id(topology), {})
    if recording:
        pairs = routing.pair_count()
        registry = telemetry.metrics
        registry.counter("collapse.recomputes").inc()
        registry.counter("collapse.pairs").inc(pairs)
        registry.counter("collapse.seconds").inc(telemetry.clock() - started)
        trace.set(pairs=pairs, services=len(routing.trees))
    trace.finish()
    return result


def _properties_by_id(topology: Topology) -> Dict[int, LinkProperties]:
    return {link.link_id: link.properties for link in topology.links()}


def _service_graph(topology: Topology) -> Dict[str, List[Link]]:
    """Adjacency list over service and bridge names."""
    graph: Dict[str, List[Link]] = {name: [] for name in topology.node_names()}
    for link in topology.links():
        if link.source in graph and link.destination in graph:
            graph[link.source].append(link)
    for edges in graph.values():
        edges.sort(key=lambda link: link.destination)
    return graph


def _dijkstra(graph: Dict[str, List[Link]],
              origin: str) -> Dict[str, Link]:
    """Latency-weighted shortest-path tree from ``origin``.

    Maps every reached node to the link its shortest path arrives by
    (``origin`` itself has no entry; :func:`_links_to` reads a path back).
    Ties are broken by hop count and then by the lexicographic order of the
    traversed node names so every Emulation Manager independently derives an
    identical collapse; among candidates equal in latency and hops the
    first one relaxed stays.
    """
    if origin not in graph:
        return {}
    # Priority: (latency, hops, path-of-node-names).
    best: Dict[str, Tuple[float, int]] = {origin: (0.0, 0)}
    tree: Dict[str, Link] = {}
    done: set = set()
    queue: List[Tuple[float, int, Tuple[str, ...], str]] = [
        (0.0, 0, (origin,), origin)]
    while queue:
        latency, hops, names, node = heapq.heappop(queue)
        if node in done:
            continue
        done.add(node)
        for link in graph[node]:
            neighbour = link.destination
            if neighbour in done:
                continue
            candidate = (latency + link.properties.latency, hops + 1)
            incumbent = best.get(neighbour)
            if incumbent is None or candidate < incumbent:
                best[neighbour] = candidate
                tree[neighbour] = link
                heapq.heappush(queue, (candidate[0], candidate[1],
                                       names + (neighbour,), neighbour))
    return tree


def _links_to(tree: Dict[str, Link], node: str) -> Optional[List[Link]]:
    """The path from the origin of ``tree`` to ``node`` as links in
    traversal order; ``None`` when the tree does not reach ``node`` (or it
    is the origin)."""
    link = tree.get(node)
    if link is None:
        return None
    links = []
    while link is not None:
        links.append(link)
        link = tree.get(link.source)
    links.reverse()
    return links


def _intra_service_path(graph: Dict[str, List[Link]],
                        service: str) -> Optional[List[Link]]:
    """Path between two replicas of the same service.

    Replicas attach to the network through the service's access link, so
    traffic between them traverses that link out to the first bridge and
    back — e.g. two ``sv`` replicas behind switch ``s2`` in Figure 1
    communicate over ``sv -> s2 -> sv``.
    """
    for link in graph.get(service, []):
        reverse = next((back for back in graph.get(link.destination, [])
                        if back.destination == service), None)
        if reverse is not None:
            return [link, reverse]
    return None
