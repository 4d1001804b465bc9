"""Offline pre-computation of the dynamic topology sequence (§3).

Computing all-pairs shortest paths online takes milliseconds for small
graphs but seconds for thousands of nodes, which would preclude sub-second
dynamics.  Kollaps therefore pre-computes, before the experiment starts, the
ordered sequence of graph states together with *all* derived metadata: the
collapsed topology and the per-link capacity map for each state.

A state costs its graph up front and nothing per container pair: its
:class:`~repro.core.collapse.CollapsedTopology` keeps the service graph and
the ``O(E)`` link-property map, builds a source service's shortest-path
tree the first time traffic leaves it while the state is in force, and
derives a pair's end-to-end path the first time traffic asks for it —
``O(states × E)`` to pre-compute, ``O(states × sources in use × E log V)``
time and ``O(states × sources in use × V)`` memory at worst over the run,
however many containers there are.

Pre-computation is incremental through the collapse memo
(:mod:`repro.core.collapse`): an event that only changes link capacities
shares the previous state's routing — graph and trees — and only takes a
fresh property map, an event that restores an earlier structure (a flap
healing) is a cache hit, and only events that change the routing inputs —
latencies, link ids, nodes — start a routing whose trees are yet to be
built.  Even then, an event that only raises latencies keeps every tree
the previous state built that no raised link is on: the new routing
inherits it instead of running a Dijkstra.  Links whose flow membership
is unaffected therefore never trigger recomputation, and repeated
campaign points over near-identical graphs share the whole table.

A state's snapshot shares every link value with the state before except
those its events replaced (links are immutable), and its signatures
format only those, so pre-computing a state costs what its events
changed plus ``O(E)`` dict and list work.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro import telemetry
from repro.core.collapse import CollapsedTopology, collapse
from repro.topology.events import EventSchedule
from repro.topology.model import Topology

__all__ = ["TopologyState", "DynamicTopologyPlan"]


@dataclass
class TopologyState:
    """One pre-computed instant of the experiment."""

    time: float
    topology: Topology
    collapsed: CollapsedTopology
    capacities: Dict[int, float]


class DynamicTopologyPlan:
    """The full pre-computed sequence, indexable by simulated time."""

    def __init__(self, base: Topology,
                 schedule: Optional[EventSchedule] = None) -> None:
        schedule = schedule or EventSchedule()
        self.states: List[TopologyState] = []
        trace = telemetry.span("dynamic.precompute")
        with telemetry.Stopwatch() as watch:
            for time, snapshot in schedule.snapshots(base):
                self.states.append(TopologyState(
                    time=time,
                    topology=snapshot,
                    collapsed=collapse(snapshot),
                    capacities={link.link_id: link.properties.bandwidth
                                for link in snapshot.links()},
                ))
        #: Monotonic seconds spent pre-computing every state's collapse:
        #: its signatures, service graph and property map.  A state's
        #: shortest-path trees are built by the first lookup from each
        #: source once the state is in force — wall-clock that moves out
        #: of this figure, simulated time that moves nowhere.
        self.precompute_seconds = watch.elapsed
        if telemetry.enabled():
            telemetry.metrics.counter("dynamic.precompute_seconds").inc(
                watch.elapsed)
            telemetry.metrics.counter("dynamic.precompute_states").inc(
                len(self.states))
            trace.set(states=len(self.states))
        trace.finish()
        self._times = [state.time for state in self.states]

    def __len__(self) -> int:
        return len(self.states)

    def state_at(self, time: float) -> TopologyState:
        """The state in force at simulated ``time``."""
        index = bisect.bisect_right(self._times, time) - 1
        return self.states[max(0, index)]

    def initial(self) -> TopologyState:
        return self.states[0]

    def change_times(self) -> List[float]:
        """Times (after 0) at which the topology switches state."""
        return self._times[1:]

    def all_containers(self) -> List[str]:
        """Union of container names across every state (stable order)."""
        seen: Dict[str, None] = {}
        for state in self.states:
            for container in state.topology.container_names():
                seen.setdefault(container)
        return list(seen)
