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

:func:`collapse` keeps the service graph (the topology's own link values,
which are immutable: an edit to the live topology replaces a link and
cannot reach a tree built afterwards) and the topology's ``link_id ->
LinkProperties`` map at that instant; it runs no Dijkstra.  A source
*service*'s predecessor-link tree is built by the first
:meth:`~CollapsedTopology.path` / :meth:`~CollapsedTopology.rtt` that
starts there and kept — a manager's local view (§3) is the full table
asked only for the rows of its own containers, and pays for those that
something talks over, ``O(sources in use × nodes)`` memory.  A
:class:`CollapsedPath` is derived the first time someone asks for the
pair (a walk up the tree composing the links in traversal order,
``O(path length)``) and remembered; an experiment that pings 30 pairs of
an 82 082-pair table builds at most 60 trees and 60 paths.
:meth:`~CollapsedTopology.pair_count` counts reachable containers over
the graph without building a tree; :meth:`~CollapsedTopology.paths`
builds whatever is still missing — every tree and every pair.

Memoization
-----------

Campaign grid sweeps re-collapse identical graphs constantly, and the
states of a dynamic plan mostly differ from the one before in a few link
capacities.  :func:`collapse` therefore reuses work in two tiers:

* **hit** — a bounded LRU keyed by a structural topology hash
  (:func:`topology_signature`: same nodes, links, ids and *all*
  properties) hands back the cached routing, property map and every tree
  and path built so far: ``O(signature)`` = ``O(V + E)``;
* **miss** — builds the service graph and compares it with the one of
  the routing the previous call returned.  Same nodes, link ids, ends
  and latencies, and the same containers: only bandwidth, jitter or loss
  differ, so the new view *shares* that routing — the trees it has and
  the ones either will still build — with a fresh ``O(E)`` property map
  (an incremental recompute).  Some latencies raised and nothing else
  that routing reads changed: a new routing inherits each tree of the
  previous one that no raised link is on instead of rebuilding it
  (:meth:`_Routing.tree`).  Anything else builds a new routing.

A link value signed twice keeps its signature fragment, so signing a
state of a dynamic plan formats only the links its events replaced.

The LRU holds 128 entries; ``collapse(memo=False)`` bypasses both tiers
and :func:`clear_collapse_cache` drops everything (``repro campaign ...
--fresh`` calls it).  Telemetry counters ``collapse.memo_hits`` /
``collapse.memo_misses`` / ``collapse.incremental_recomputes`` /
``collapse.memo_invalidations`` expose the cache's behaviour,
``collapse.trees_built`` the Dijkstra runs, ``collapse.trees_inherited``
the trees taken over across a latency rise and ``collapse.paths_built``
the pairs actually derived; see ``docs/performance.md``.
"""

from __future__ import annotations

import hashlib
import heapq
import threading
import weakref
from collections import Counter, OrderedDict
from dataclasses import dataclass
from operator import attrgetter
from typing import Dict, List, Optional, Tuple

from repro import telemetry
from repro.core.properties import PathProperties, compose_path
from repro.topology.model import (Link, LinkProperties, Topology,
                                  TopologyError)

__all__ = ["CollapsedPath", "CollapsedTopology", "collapse",
           "topology_signature", "clear_collapse_cache"]

#: Entry bound of the memo LRU.
_CACHE_CAPACITY = 128

_BY_ENDS = attrgetter("source", "destination")
_BY_DESTINATION = attrgetter("destination")


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
    graph's links, so every topology that differs from this one only in
    the other link *properties* can share the instance — those belong to
    the :class:`CollapsedTopology`.  Nothing here changes once set: a
    tree is a function of the graph, so two threads filling the same one
    store equal values.
    """

    __slots__ = ("graph", "containers", "service_of", "members", "trees",
                 "loops", "parent", "rises", "__weakref__")

    def __init__(self, topology: Topology, graph: Dict[str, List[Link]],
                 parent: Optional["_Routing"] = None,
                 rises: Optional[List[Link]] = None) -> None:
        self.graph = graph
        self.containers = topology.container_names()
        #: Container -> service, in table (source-major) order.
        self.service_of = {name: name.split(".")[0]
                           for name in self.containers}
        #: Containers per service.
        self.members = Counter(self.service_of.values())
        #: One tree per *service* (its containers share paths), made on
        #: first use: inherited from ``parent`` or by a Dijkstra.
        self.trees: Dict[str, Dict[str, Link]] = {}
        self.loops = {service: _intra_service_path(graph, service)
                      for service, count in self.members.items()
                      if count > 1}
        #: The links whose latency rose since ``parent`` (the routing the
        #: previous memoized collapse returned, see :func:`_latency_rises`)
        #: and a weak reference to it — both ``None`` unless this graph is
        #: the parent's after a pure latency rise (:meth:`tree`).
        self.rises = rises
        self.parent = None if rises is None else weakref.ref(parent)

    def tree(self, service: str) -> Dict[str, Link]:
        """The shortest-path tree from ``service``, made on first use."""
        tree = self.trees.get(service)
        if tree is None:
            tree = self._inherited(service)
            if tree is not None:
                name = "collapse.trees_inherited"
            else:
                tree = _dijkstra(self.graph, service)
                name = "collapse.trees_built"
            self.trees[service] = tree
            if telemetry.enabled():
                telemetry.metrics.counter(name).inc()
        return tree

    def _inherited(self, service: str) -> Optional[Dict[str, Link]]:
        """The parent's tree from ``service``, when it has built one and
        it is this graph's too: this graph is the parent's with some
        latencies raised, and none of those links is on the tree.

        :func:`_dijkstra` settles nodes in ``(latency, hops, names)``
        order and a node keeps the first candidate strictly better than
        the one it has.  On the tree every latency sum is what it was,
        and float addition is monotone, so every other candidate is at
        least as long as before: no node settles earlier or changes its
        winner, and the run picks the same tree link by link.
        """
        parent = self.parent() if self.parent is not None else None
        tree = parent.trees.get(service) if parent is not None else None
        if tree is None:
            return None
        for link in self.rises:
            entered = tree.get(link.destination)
            if entered is not None and entered.link_id == link.link_id:
                return None
        return tree

    def links(self, source: str, destination: str) -> Optional[List[Link]]:
        """The links from ``source`` to ``destination`` in traversal
        order, ``None`` when there is no such path in this table."""
        service = self.service_of.get(source)
        target = self.service_of.get(destination)
        if service is None or target is None or source == destination:
            return None
        if target == service:
            return self.loops.get(service)
        return _links_to(self.tree(service), target)

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
        for service in members:
            if service in reach:
                continue
            reached = _reachable(ahead, service)
            containers = sum(members[node] for node in reached)
            for node in reached & _reachable(behind, service):
                reach[node] = containers - members[node]
        for service, loop in self.loops.items():
            if loop is not None:
                reach[service] += members[service] - 1
        return sum(reach[service] for service in self.service_of.values())


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
        for source in routing.containers:
            for destination in routing.containers:
                path = self.path(source, destination)
                if path is not None:
                    found.append(path)
        return found

    def pair_count(self) -> int:
        """How many ordered pairs the table answers for; builds neither
        a path nor a tree."""
        return self._routing.pair_count()


# ---------------------------------------------------------------------------
# Structural topology hashing.
# ---------------------------------------------------------------------------

def topology_signature(topology: Topology) -> str:
    """A structural hash of ``topology`` (hex digest, 32 chars).

    Two topologies with equal signatures collapse identically: the hash
    covers services (name, replicas), bridges, and every link's endpoints,
    id and properties, over the links' fragments (:func:`_sign`).  The
    topology *name* is deliberately excluded: renames don't change
    behaviour.

    Complexity ``O(V log V + E log E)`` (sorting for order independence).
    """
    nodes = "".join(
        [f"S{name}*{topology.services[name].replicas};"
         for name in sorted(topology.services)]
        + [f"B{name};" for name in sorted(topology.bridges)])
    fragments = [link.signature or _sign(link)
                 for link in sorted(topology.links(), key=_BY_ENDS)]
    return hashlib.blake2b((nodes + "".join(fragments)).encode(),
                           digest_size=16).hexdigest()


def _sign(link: Link) -> str:
    """``link``'s signature fragment, formatted.

    The second signature that reads a link value keeps it on it
    (``Link.signature``; the first leaves ``""`` there), and later ones
    read it back: the states of a dynamic plan share every link their
    events did not replace, so signing a state formats only the links
    its events touched, while a link signed once — a topology collapsed
    once — holds no text.
    """
    properties = link.properties
    fragment = (f"L{link.source}>{link.destination}#{link.link_id}"
                f"@{properties.latency!r}|{properties.bandwidth!r},"
                f"{properties.jitter!r},{properties.loss!r},"
                f"{properties.jitter_distribution},{link.network};")
    object.__setattr__(link, "signature",       # a cache on a frozen value
                       "" if link.signature is None else fragment)
    return fragment


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
_cache: "OrderedDict[str, _CacheEntry]" = OrderedDict()
# The routing the last memoized collapse() returned, weakly: the one the
# next miss shares or inherits trees from.
_previous: Optional["weakref.ReferenceType[_Routing]"] = None


def clear_collapse_cache() -> None:
    """Drop every memoized collapse (``campaign --fresh``, tests).

    Counts the dropped entries into ``collapse.memo_invalidations`` when
    telemetry is enabled.
    """
    global _previous
    with _cache_lock:
        dropped = len(_cache)
        _cache.clear()
        _previous = None
    if dropped and telemetry.enabled():
        telemetry.metrics.counter("collapse.memo_invalidations").inc(dropped)


def _cache_store(key: str, result: CollapsedTopology) -> None:
    """Remember ``result`` under ``key`` and make its routing the one the
    next miss is compared with."""
    global _previous
    entry = _CacheEntry(result._routing, result._properties, result._built)
    evicted = 0
    with _cache_lock:
        _cache[key] = entry
        _cache.move_to_end(key)
        _previous = weakref.ref(result._routing)
        while len(_cache) > _CACHE_CAPACITY:
            _cache.popitem(last=False)
            evicted += 1
    if evicted and telemetry.enabled():
        telemetry.metrics.counter("collapse.memo_invalidations").inc(evicted)


# ---------------------------------------------------------------------------
# collapse() — the public entry point.
# ---------------------------------------------------------------------------

def collapse(topology: Topology, *, memo: bool = True) -> CollapsedTopology:
    """Collapse ``topology`` into end-to-end virtual links.

    Every ordered container pair is answered; a row nobody reads costs
    nothing, so an Emulation Manager that only asks for the paths of its
    local containers (§3) pays for those alone.

    ``memo=False`` bypasses the module cache and the previous routing
    entirely (neither read nor populated) — used by the precompute
    ablation and the cold-path benchmark, which must measure a genuine
    from-scratch collapse (and ask for ``.paths()`` to make it the
    all-pairs one).

    Determinism: the same topology always yields the same path table —
    Dijkstra ties break on hop count then lexicographic node order, so
    every decentralized manager derives an identical collapse, in
    whichever order its trees come to be built.  Complexity: the
    ``O(V + E)`` service graph and property map here; one Dijkstra
    (``O((V + E) log V)``) on the first lookup from each source *service*;
    ``O(path length)`` on the first lookup of each pair.  Memo hits are
    ``O(signature)`` = ``O(V + E)``, and so is sharing the previous
    routing.
    """
    global _previous
    if not memo:
        return _collapse_full(topology, _service_graph(topology))

    recording = telemetry.enabled()
    started = telemetry.clock() if recording else 0.0
    signature = topology_signature(topology)
    with _cache_lock:
        entry = _cache.get(signature)
        if entry is not None:
            _cache.move_to_end(signature)
            _previous = weakref.ref(entry.routing)
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
    with _cache_lock:
        parent = _previous() if _previous is not None else None
    graph = _service_graph(topology)
    rises = None if parent is None else _latency_rises(parent.graph, graph)
    if rises == [] and parent.containers == topology.container_names():
        # Same nodes, link ids, ends, latencies and containers: the
        # previous routing's graph and trees are this topology's, only
        # the composed properties differ.
        result = CollapsedTopology(topology, parent,
                                   _properties_by_id(topology), {})
        if recording:
            registry = telemetry.metrics
            registry.counter("collapse.incremental_recomputes").inc()
            registry.counter("collapse.incremental_seconds").inc(
                telemetry.clock() - started)
    else:
        result = _collapse_full(topology, graph, parent, rises)
    _cache_store(signature, result)
    return result


def _collapse_full(topology: Topology, graph: Dict[str, List[Link]],
                   parent: Optional[_Routing] = None,
                   rises: Optional[List[Link]] = None) -> CollapsedTopology:
    """A new routing over ``graph`` with no tree built yet, which may
    inherit ``parent``'s (see :meth:`_Routing.tree`)."""
    recording = telemetry.enabled()
    started = telemetry.clock() if recording else 0.0
    trace = telemetry.span("collapse.all_pairs",
                           containers=len(topology.container_names()))
    routing = _Routing(topology, graph, parent, rises)
    result = CollapsedTopology(topology, routing,
                               _properties_by_id(topology), {})
    if recording:
        pairs = routing.pair_count()
        registry = telemetry.metrics
        registry.counter("collapse.recomputes").inc()
        registry.counter("collapse.pairs").inc(pairs)
        registry.counter("collapse.seconds").inc(telemetry.clock() - started)
        trace.set(pairs=pairs, services=len(routing.members))
    trace.finish()
    return result


def _properties_by_id(topology: Topology) -> Dict[int, LinkProperties]:
    return {link.link_id: link.properties for link in topology.links()}


def _service_graph(topology: Topology) -> Dict[str, List[Link]]:
    """Adjacency list over service and bridge names, each node's links in
    destination order.  The links are the topology's own immutable values:
    an edit to the topology replaces a link and cannot reach this graph.
    """
    graph: Dict[str, List[Link]] = {name: [] for name in topology.node_names()}
    for link in topology.links():
        if link.source in graph and link.destination in graph:
            graph[link.source].append(link)
    for edges in graph.values():
        edges.sort(key=_BY_DESTINATION)
    return graph


def _latency_rises(before: Dict[str, List[Link]],
                   after: Dict[str, List[Link]]) -> Optional[List[Link]]:
    """The links of graph ``after`` whose latency is higher than in
    ``before``; ``None`` unless ``after`` is ``before`` with some
    latencies raised and nothing else routing reads changed — the same
    nodes, and at each the same link ids to the same destinations.

    One pass over the nodes; the links both graphs share compare by
    identity.
    """
    if before.keys() != after.keys():
        return None
    rises = []
    for node, edges in after.items():
        old = before[node]
        if edges == old:
            continue
        if len(edges) != len(old):
            return None
        for link, was in zip(edges, old):
            if link is was:
                continue
            if (link.link_id != was.link_id
                    or link.destination != was.destination
                    or link.properties.latency < was.properties.latency):
                return None
            if link.properties.latency > was.properties.latency:
                rises.append(link)
    return rises


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
