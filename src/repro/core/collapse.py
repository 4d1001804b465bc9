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

:func:`collapse` keeps the service graph (a snapshot: links are copied, so
a later edit to the live topology cannot reach a tree built afterwards)
and the topology's ``link_id -> LinkProperties`` map at that instant; it
runs no Dijkstra.  A source *service*'s predecessor-link tree is built by
the first :meth:`~CollapsedTopology.path` / :meth:`~CollapsedTopology.rtt`
/ :meth:`~CollapsedTopology.reachable_from` that starts there and kept —
a manager pays for the rows of its own containers that something talks
over (§3), ``O(sources in use × nodes)`` memory.  A :class:`CollapsedPath`
is derived the first time someone asks for the pair (a walk up the tree
composing the links in traversal order, ``O(path length)``) and
remembered; an experiment that pings 30 pairs of an 82 082-pair table
builds at most 60 trees and 60 paths.
:meth:`~CollapsedTopology.pair_count` counts reachable containers over
the graph without building a tree; :meth:`~CollapsedTopology.paths`
builds whatever is still missing — every tree and every pair.

Memoization
-----------

Campaign grid sweeps re-collapse near-identical graphs constantly: every
point of a bandwidth sweep shares one routing structure, and every dynamic
state that only changes link capacities keeps its shortest paths.  The
module therefore memoizes :func:`collapse` results in a bounded LRU keyed
by a structural topology hash (:func:`topology_signature`):

* **hit** — a structurally identical topology (same nodes, links, ids and
  *all* properties) shares the cached routing, property map and every
  tree and path built so far: ``O(signature)`` = ``O(V + E)``;
* **incremental** — a topology whose *routing* inputs (nodes, link ids,
  latencies) match a cached entry but whose non-routing properties
  (bandwidth, jitter, loss) differ shares the donor's routing — the
  trees it has and the ones either will still build — and only rebuilds
  the ``O(E)`` property map;
* **miss** — anything else builds a new service graph and populates the
  cache.

The LRU holds 128 entries; ``collapse(memo=False)`` bypasses it and
:func:`clear_collapse_cache` drops everything (``repro campaign ...
--fresh`` calls it).  Telemetry counters ``collapse.memo_hits`` /
``collapse.memo_misses`` / ``collapse.incremental_recomputes`` /
``collapse.memo_invalidations`` expose the cache's behaviour,
``collapse.trees_built`` the Dijkstra runs and ``collapse.paths_built``
the pairs actually derived; see ``docs/performance.md``.
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
    """The service graph of one routing structure and the shortest-path
    trees built over it so far — nothing per pair.

    ``trees[service][node]`` is the link the shortest path from ``service``
    enters ``node`` by (the origin has no entry), filled by :meth:`tree`
    the first time a path from that service is asked for;
    ``loops[service]`` is the two-link path between replicas of one
    service.  Only names, endpoints, ids and latencies are read from the
    graph's links, so every topology with the same routing signature can
    share one instance — the other link *properties* belong to the
    :class:`CollapsedTopology`.  Nothing here changes once set: a tree is
    a function of the graph, so two threads filling the same one store
    equal values.
    """

    __slots__ = ("graph", "containers", "service_of", "sources", "members",
                 "trees", "loops")

    def __init__(self, topology: Topology,
                 sources: Optional[Sequence[str]]) -> None:
        self.graph = _service_graph(topology)
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
        #: One Dijkstra per *service* (its containers share paths), run
        #: on first use.
        self.trees: Dict[str, Dict[str, Link]] = {}
        self.loops = {service: _intra_service_path(self.graph, service)
                      for service in set(self.sources.values())
                      if self.members[service] > 1}

    def tree(self, service: str) -> Dict[str, Link]:
        """The shortest-path tree from ``service``, built on first use."""
        tree = self.trees.get(service)
        if tree is None:
            tree = self.trees[service] = _dijkstra(self.graph, service)
            if telemetry.enabled():
                telemetry.metrics.counter("collapse.trees_built").inc()
        return tree

    def links(self, source: str, destination: str) -> Optional[List[Link]]:
        """The links from ``source`` to ``destination`` in traversal
        order, ``None`` when there is no such path in this table."""
        service = self.sources.get(source)
        target = self.service_of.get(destination)
        if service is None or target is None or source == destination:
            return None
        if target == service:
            return self.loops.get(service)
        return _links_to(self.tree(service), target)

    def reachable_from(self, source: str) -> List[str]:
        """The containers ``source`` has a path to, in container order."""
        service = self.sources.get(source)
        if service is None:
            return []
        tree = self.tree(service)
        looped = self.loops.get(service) is not None
        service_of = self.service_of
        return [name for name in self.containers
                if service_of[name] in tree
                or (looped and service_of[name] == service
                    and name != source)]

    def pair_count(self) -> int:
        """Ordered pairs with a path, from reachability over the graph —
        no tree is built, so counting (telemetry does) never changes what
        a run computes.

        Nodes that reach each other reach the same set, so one forward and
        one backward search settle a whole strongly connected component:
        ``O(V + E)`` when every link has a reverse, one pair of searches
        per component holding a source otherwise.
        """
        ahead = {node: [link.destination for link in links]
                 for node, links in self.graph.items()}
        behind: Dict[str, List[str]] = {node: [] for node in ahead}
        for node, neighbours in ahead.items():
            for neighbour in neighbours:
                behind[neighbour].append(node)
        members = self.members          # a Counter: 0 for a bridge
        reach: Dict[str, int] = {}
        for service in self.sources.values():
            if service in reach:
                continue
            reached = _reachable(ahead, service)
            containers = sum(members[node] for node in reached)
            for node in reached & _reachable(behind, service):
                reach[node] = containers - members[node]
        for service, loop in self.loops.items():
            if loop is not None:
                reach[service] += members[service] - 1
        return sum(reach[service] for service in self.sources.values())


class CollapsedTopology:
    """All-pairs collapsed view of a topology at one instant.

    Holds the routing (service graph plus the trees built so far) and the
    ``link_id -> LinkProperties`` map of that instant; a source's tree is
    built by the first lookup that starts there, a :class:`CollapsedPath`
    on the first :meth:`path` lookup of its pair, and both are remembered.
    Memoized lookups hand the same routing (and, for identical topologies,
    the same built paths) to several ``CollapsedTopology`` wrappers, each
    referencing the live :class:`~repro.topology.model.Topology` it was
    requested for; what is shared only ever gains immutable values that
    depend on nothing but the topology, so sharing is invisible.
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
        walks the source's tree, ``O(path length)`` — after one Dijkstra
        if it is also the first from that source's service.
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
        builds the trees and pairs nobody has asked for yet: this is the
        all-pairs computation (one Dijkstra per source service, then
        ``O(pairs)``)."""
        routing = self._routing
        found = []
        for source in routing.sources:
            for destination in routing.containers:
                path = self.path(source, destination)
                if path is not None:
                    found.append(path)
        return found

    def pair_count(self) -> int:
        """How many ordered pairs the table answers for; builds neither
        a path nor a tree."""
        return self._routing.pair_count()

    def reachable_from(self, source: str) -> List[str]:
        return self._routing.reachable_from(source)


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
    full, routing = _signatures(topology)
    return routing if routing_only else full


def _signatures(topology: Topology) -> Tuple[str, str]:
    """``(full, routing-only)`` signatures from one sorted walk."""
    nodes = "".join(
        [f"S{name}*{topology.services[name].replicas};"
         for name in sorted(topology.services)]
        + [f"B{name};" for name in sorted(topology.bridges)])
    full, routing = [nodes], [nodes]
    for link in sorted(topology.links(),
                       key=lambda link: (link.source, link.destination)):
        properties = link.properties
        routed = (f"L{link.source}>{link.destination}#{link.link_id}"
                  f"@{properties.latency!r}")
        routing.append(f"{routed};")
        full.append(
            f"{routed}|{properties.bandwidth!r},{properties.jitter!r},"
            f"{properties.loss!r},{properties.jitter_distribution},"
            f"{link.network};")
    return tuple(
        hashlib.blake2b("".join(parts).encode(), digest_size=16).hexdigest()
        for parts in (full, routing))


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

    ``sources`` restricts the table to paths originating at the given
    containers — each Emulation Manager only answers for the part of the
    topology affecting its local containers (§3), which this parameter
    models.  With the default, all ordered container pairs are answered.
    It says which rows exist, not which are computed: a row nobody reads
    costs nothing either way.

    ``memo=False`` bypasses the module cache entirely (neither read nor
    populated) — used by the precompute ablation and the cold-path
    benchmark, which must measure a genuine from-scratch collapse (and
    ask for ``.paths()`` to make it the all-pairs one).

    Determinism: the same topology always yields the same path table —
    Dijkstra ties break on hop count then lexicographic node order, so
    every decentralized manager derives an identical collapse, in
    whichever order its trees come to be built.  Complexity: the
    ``O(V + E)`` service graph and property map here; one Dijkstra
    (``O((V + E) log V)``) on the first lookup from each source *service*;
    ``O(path length)`` on the first lookup of each pair.  Memo hits are
    ``O(signature)`` = ``O(V + E)``, incremental reuses ``O(V + E)`` as
    well.
    """
    if not memo:
        return _collapse_full(topology, sources)

    recording = telemetry.enabled()
    started = telemetry.clock() if recording else 0.0
    sources_key = tuple(sources) if sources is not None else None
    full_signature, routing_signature = _signatures(topology)
    full_key = (full_signature, sources_key)
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
    routing_key = (routing_signature, sources_key)
    with _cache_lock:
        donor_key = _routing_index.get(routing_key)
        donor = _cache.get(donor_key) if donor_key is not None else None
    if donor is not None:
        # Same nodes, link ids and latencies: the donor's graph and trees
        # are this topology's, only the composed properties differ.
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
    """The from-scratch collapse: a new routing with no tree built yet."""
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
        trace.set(pairs=pairs, services=len(set(routing.sources.values())))
    trace.finish()
    return result


def _properties_by_id(topology: Topology) -> Dict[int, LinkProperties]:
    return {link.link_id: link.properties for link in topology.links()}


def _service_graph(topology: Topology) -> Dict[str, List[Link]]:
    """Adjacency list over service and bridge names.

    The links are copies: ``Topology.update_link`` rewrites a live link's
    properties in place, and a tree built from this graph later must see
    the latencies of this instant.
    """
    graph: Dict[str, List[Link]] = {name: [] for name in topology.node_names()}
    for link in topology.links():
        if link.source in graph and link.destination in graph:
            graph[link.source].append(Link(
                link.source, link.destination, link.properties, link.network,
                link.link_id))
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


def _reachable(neighbours: Dict[str, List[str]], origin: str) -> set:
    """``origin`` and every node a walk over ``neighbours`` gets to."""
    seen = {origin}
    stack = [origin]
    while stack:
        for node in neighbours[stack.pop()]:
            if node not in seen:
                seen.add(node)
                stack.append(node)
    return seen


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
