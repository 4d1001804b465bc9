"""k-shortest-path multipath collapsing (§6 "Multipath routing", §7).

The released Kollaps discards multipath: one shortest path per container
pair.  The paper sketches the planned extension — (i) specify multiple
paths, (ii) collapse with a k-shortest-paths algorithm, (iii) extend the
emulation model.  This module implements (ii) and the model arithmetic of
(iii):

* :func:`k_shortest_paths` — loop-free k-shortest paths by latency (Yen's
  algorithm over the same deterministic Dijkstra the collapse uses),
* :func:`multipath_collapse` — per container pair, up to ``k`` disjoint-ish
  paths with composed properties,
* :class:`MultipathProperties` — the end-to-end view under equal-split
  multipath routing: aggregate bandwidth is the *sum* of per-path
  bottlenecks, latency/jitter follow the per-packet mixture distribution,
  loss is the traffic-weighted mean.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.collapse import _dijkstra, _links_to, _service_graph
from repro.core.properties import PathProperties, compose_path
from repro.topology.model import Link, Topology

__all__ = ["k_shortest_paths", "multipath_collapse", "MultipathProperties"]


@dataclass(frozen=True)
class MultipathProperties:
    """End-to-end properties when traffic splits evenly over ``paths``."""

    paths: Tuple[PathProperties, ...]

    @property
    def bandwidth(self) -> float:
        """Aggregate capacity: each subflow rides its own bottleneck."""
        return sum(path.bandwidth for path in self.paths)

    @property
    def latency(self) -> float:
        """Mean per-packet latency of the equal-split mixture."""
        return sum(path.latency for path in self.paths) / len(self.paths)

    @property
    def jitter(self) -> float:
        """Mixture standard deviation: within-path variance plus the
        between-path spread (packet reordering across unequal paths shows
        up as jitter to the application)."""
        n = len(self.paths)
        mean = self.latency
        within = sum(path.jitter ** 2 for path in self.paths) / n
        between = sum((path.latency - mean) ** 2 for path in self.paths) / n
        return math.sqrt(within + between)

    @property
    def loss(self) -> float:
        return sum(path.loss for path in self.paths) / len(self.paths)


def k_shortest_paths(topology: Topology, source: str, destination: str,
                     k: int) -> List[List[Link]]:
    """Yen's algorithm: up to ``k`` loop-free latency-shortest paths."""
    if k < 1:
        raise ValueError("k must be >= 1")
    graph = _service_graph(topology)
    first = _links_to(_dijkstra(graph, source), destination)
    if first is None:
        return []
    accepted: List[List[Link]] = [first]
    candidates: List[Tuple[float, int, List[Link]]] = []
    counter = 0

    while len(accepted) < k:
        previous = accepted[-1]
        previous_nodes = _nodes_of(source, previous)
        for spur_index in range(len(previous)):
            spur_node = previous_nodes[spur_index]
            root = previous[:spur_index]
            # Remove edges that would recreate an accepted path, and the
            # root's nodes, then search from the spur node.
            banned_edges = set()
            for path in accepted:
                if path[:spur_index] == root and len(path) > spur_index:
                    banned_edges.add(path[spur_index].key)
            banned_nodes = set(previous_nodes[:spur_index])
            pruned = _pruned_graph(graph, banned_edges, banned_nodes)
            spur = _links_to(_dijkstra(pruned, spur_node), destination)
            if spur is None:
                continue
            candidate = root + spur
            if any(candidate == path for path in accepted):
                continue
            latency = sum(link.properties.latency for link in candidate)
            counter += 1
            heapq.heappush(candidates, (latency, counter, candidate))
        if not candidates:
            break
        while candidates:
            _, _, best = heapq.heappop(candidates)
            if best not in accepted:
                accepted.append(best)
                break
        else:
            break
    return accepted[:k]


def _nodes_of(source: str, path: List[Link]) -> List[str]:
    return [source] + [link.destination for link in path]


def _pruned_graph(graph: Dict[str, List[Link]], banned_edges: set,
                  banned_nodes: set) -> Dict[str, List[Link]]:
    pruned: Dict[str, List[Link]] = {}
    for node, links in graph.items():
        if node in banned_nodes:
            pruned[node] = []
            continue
        pruned[node] = [link for link in links
                        if link.key not in banned_edges
                        and link.destination not in banned_nodes]
    return pruned


def multipath_collapse(topology: Topology, source: str, destination: str,
                       k: int = 2) -> Optional[MultipathProperties]:
    """Collapse up to ``k`` paths between two containers into one view."""
    service = source.split(".")[0]
    target = destination.split(".")[0]
    paths = k_shortest_paths(topology, service, target, k)
    if not paths:
        return None
    return MultipathProperties(paths=tuple(
        compose_path([link.properties for link in path]) for path in paths))
