"""Network collapsing: reduce a full topology to end-to-end virtual links.

This is the paper's first key insight (§1, Figure 1): applications only
observe emergent end-to-end properties, so the emulator can discard router
and switch state entirely.  The collapse computes, for every ordered pair of
containers, the shortest path through the declared bridges and records

* the composed end-to-end properties (:class:`PathProperties`),
* the identifiers of the constituent physical links — these are what the
  bandwidth-sharing model later uses to detect flows competing on a shared
  link even though the topology has been collapsed away.

Shortest paths are computed with Dijkstra's algorithm [38] over link latency
(ties broken by hop count, then lexicographic next-hop so that the collapse
is deterministic across Emulation Managers without coordination — a
requirement for the fully decentralized design).

Memoization
-----------

Campaign grid sweeps re-collapse near-identical graphs constantly: every
point of a bandwidth sweep shares one routing structure, and every dynamic
state that only changes link capacities keeps its shortest paths.  The
module therefore memoizes :func:`collapse` results in a bounded LRU keyed
by a structural topology hash (:func:`topology_signature`):

* **hit** — a structurally identical topology (same nodes, links, ids and
  *all* properties) returns the cached path table directly;
* **incremental** — a topology whose *routing* inputs (nodes, link ids,
  latencies) match a cached entry but whose non-routing properties
  (bandwidth, jitter, loss) differ reuses the cached shortest paths and
  only re-composes the end-to-end properties — no Dijkstra runs;
* **miss** — anything else computes from scratch and populates the cache.

The LRU holds 128 entries; ``collapse(memo=False)`` bypasses it and
:func:`clear_collapse_cache` drops everything (``repro campaign ...
--fresh`` calls it).  Telemetry counters ``collapse.memo_hits`` /
``collapse.memo_misses`` / ``collapse.incremental_recomputes`` /
``collapse.memo_invalidations`` expose the cache's behaviour; see
``docs/performance.md``.
"""

from __future__ import annotations

import hashlib
import heapq
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro import telemetry
from repro.core.properties import PathProperties, compose_path
from repro.topology.model import Link, Topology, TopologyError

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


class CollapsedTopology:
    """All-pairs collapsed view of a topology at one instant.

    The path table is immutable once built; memoized lookups hand the same
    table to several ``CollapsedTopology`` wrappers, each referencing the
    live :class:`~repro.topology.model.Topology` it was requested for.
    """

    def __init__(self, topology: Topology,
                 paths: Dict[Tuple[str, str], CollapsedPath]) -> None:
        self.topology = topology
        self._paths = paths

    def path(self, source: str, destination: str) -> Optional[CollapsedPath]:
        """The collapsed path, or ``None`` when unreachable."""
        return self._paths.get((source, destination))

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

    def paths(self) -> Iterable[CollapsedPath]:
        return self._paths.values()

    def pair_count(self) -> int:
        return len(self._paths)

    def reachable_from(self, source: str) -> List[str]:
        return [dst for (src, dst) in self._paths if src == source]


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
    paths: Dict[Tuple[str, str], CollapsedPath]
    routing_signature: str


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
                 entry: _CacheEntry) -> None:
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


def _reproperty(donor: Dict[Tuple[str, str], CollapsedPath],
                topology: Topology) -> Dict[Tuple[str, str], CollapsedPath]:
    """Re-compose end-to-end properties over unchanged shortest paths.

    The donor's routing (link ids, node paths) is valid for ``topology``
    because their routing signatures match; only per-link bandwidth /
    jitter / loss may differ, so one :func:`compose_path` per pair replaces
    a Dijkstra per service.
    """
    by_id = {link.link_id: link.properties for link in topology.links()}
    fresh: Dict[Tuple[str, str], CollapsedPath] = {}
    for pair, path in donor.items():
        fresh[pair] = CollapsedPath(
            source=path.source,
            destination=path.destination,
            properties=compose_path([by_id[link_id]
                                     for link_id in path.link_ids]),
            link_ids=path.link_ids,
            node_path=path.node_path,
        )
    return fresh


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
    models.  With the default, all ordered container pairs are computed.

    ``memo=False`` bypasses the module cache entirely (neither read nor
    populated) — used by the precompute ablation and the cold-path
    benchmark, which must measure a genuine from-scratch collapse.

    Determinism: the same topology always yields the same path table —
    Dijkstra ties break on hop count then lexicographic node order, so
    every decentralized manager derives an identical collapse.  Complexity
    is one Dijkstra per *service* (``O((V + E) log V)`` each) plus
    ``O(pairs)`` assembly; memo hits are ``O(signature)`` = ``O(V + E)``,
    incremental reuses ``O(pairs × path length)``.
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
        return CollapsedTopology(topology, entry.paths)

    if recording:
        telemetry.metrics.counter("collapse.memo_misses").inc()
    routing_signature = topology_signature(topology, routing_only=True)
    routing_key = (routing_signature, sources_key)
    with _cache_lock:
        donor_key = _routing_index.get(routing_key)
        donor = _cache.get(donor_key) if donor_key is not None else None
    if donor is not None:
        paths = _reproperty(donor.paths, topology)
        _cache_store(full_key, routing_key,
                     _CacheEntry(paths, routing_signature))
        if recording:
            registry = telemetry.metrics
            registry.counter("collapse.incremental_recomputes").inc()
            registry.counter("collapse.incremental_seconds").inc(
                telemetry.clock() - started)
        return CollapsedTopology(topology, paths)

    result = _collapse_full(topology, sources)
    _cache_store(full_key, routing_key,
                 _CacheEntry(result._paths, routing_signature))
    return result


def _collapse_full(topology: Topology,
                   sources: Optional[Sequence[str]]) -> CollapsedTopology:
    """The from-scratch all-pairs collapse (one Dijkstra per service)."""
    recording = telemetry.enabled()
    started = telemetry.clock() if recording else 0.0
    trace = telemetry.span("collapse.all_pairs",
                           containers=len(topology.container_names()))
    graph = _service_graph(topology)
    containers = topology.container_names()
    container_service = {name: name.split(".")[0] for name in containers}
    wanted_sources = list(sources) if sources is not None else containers

    # One Dijkstra per *service* (containers of a service share paths).
    needed_services = sorted({container_service[c] for c in wanted_sources
                              if c in container_service})
    service_paths: Dict[str, Dict[str, List[Link]]] = {
        service: _dijkstra(graph, service) for service in needed_services}

    paths: Dict[Tuple[str, str], CollapsedPath] = {}
    for source in wanted_sources:
        src_service = container_service.get(source)
        if src_service is None:
            continue
        reachable = service_paths[src_service]
        for destination in containers:
            if destination == source:
                continue
            dst_service = container_service[destination]
            if dst_service == src_service:
                links = _intra_service_path(graph, src_service)
                if links is None:
                    continue
            else:
                links = reachable.get(dst_service)
                if links is None:
                    continue
            node_path = (source,) + tuple(
                link.destination for link in links[:-1]) + (destination,)
            paths[(source, destination)] = CollapsedPath(
                source=source,
                destination=destination,
                properties=compose_path([link.properties for link in links]),
                link_ids=tuple(link.link_id for link in links),
                node_path=node_path,
            )
    if recording:
        registry = telemetry.metrics
        registry.counter("collapse.recomputes").inc()
        registry.counter("collapse.pairs").inc(len(paths))
        registry.counter("collapse.seconds").inc(telemetry.clock() - started)
        trace.set(pairs=len(paths), services=len(needed_services))
    trace.finish()
    return CollapsedTopology(topology, paths)


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
              origin: str) -> Dict[str, List[Link]]:
    """Latency-weighted shortest paths from ``origin`` to every node.

    Ties are broken by hop count and then by the lexicographic order of the
    traversed node names so every Emulation Manager independently derives an
    identical collapse.
    """
    if origin not in graph:
        return {}
    # Priority: (latency, hops, path-of-node-names).
    best: Dict[str, Tuple[float, int]] = {origin: (0.0, 0)}
    chosen: Dict[str, List[Link]] = {origin: []}
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
                chosen[neighbour] = chosen[node] + [link]
                heapq.heappush(queue, (candidate[0], candidate[1],
                                       names + (neighbour,), neighbour))
    del chosen[origin]
    return chosen


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
