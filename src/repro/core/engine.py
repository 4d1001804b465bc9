"""The emulation engine: Kollaps end-to-end over a simulated cluster.

:class:`EmulationEngine` is the top-level facade a user (or the deployment
generator) drives:

* builds the cluster and places containers,
* assigns IP addresses and hands every container's TCAL its row of the
  pre-computed collapsed topology (chains are built from it on first use),
* starts one Emulation Manager per machine, connected by media drivers
  (only when bandwidth sharing is enforced: a latency-only engine runs no
  emulation loop, so it builds none and loads neither module),
* schedules the dynamic topology swaps,
* exposes the two data planes applications run on — the packet plane
  (:class:`~repro.netstack.kollapsnet.KollapsDataPlane`) and the fluid bulk
  plane (:class:`~repro.netstack.fluid.FluidEngine` with
  :class:`~repro.netstack.fluid.ShapedConstraints`).

Bulk flows created through :meth:`start_flow` automatically record their
usage into the sender's TCAL counters, so the emulation loop sees exactly
what the kernel's netlink counters would report.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import partial
from typing import Dict, Hashable, List, Optional

from repro import telemetry
from repro.cluster.machines import INTERCONNECT_LATENCY, Cluster, infeasibility
from repro.core.collapse import collapse
from repro.core.dynamic import DynamicTopologyPlan, TopologyState
from repro.core.emucore import EmulationCore
from repro.netstack.fluid.engine import FluidEngine, ShapedConstraints
from repro.netstack.kollapsnet import KollapsDataPlane
from repro.sim import Process, RngRegistry, Simulator
from repro.tc.ip import IpAllocator
from repro.tc.tcal import Tcal
from repro.topology.events import EventSchedule
from repro.topology.model import Topology

__all__ = ["EmulationEngine", "EngineConfig"]


@dataclass
class EngineConfig:
    """Tunables of a Kollaps deployment."""

    machines: int = 1
    loop_period: float = 0.050
    seed: int = 0
    congestion_sensitivity: float = 1.0
    fluid_dt: float = 0.010
    # When False, no emulation loop runs: shaping stays at the collapsed
    # path properties (useful for latency-only experiments and ablations),
    # and the engine builds no Emulation Manager and no media driver.
    enforce_bandwidth_sharing: bool = True
    # §7 future work: time dilation.  A factor of N means virtual time
    # runs N times slower than the cluster, so emulated link capacities up
    # to N x the physical interconnect are feasible (§6's "beyond the
    # physical links" limitation), as ``infeasibility`` judges it.
    time_dilation: float = 1.0


class EmulationEngine:
    """A fully wired Kollaps instance over a simulated cluster."""

    def __init__(self, topology: Topology,
                 schedule: Optional[EventSchedule] = None, *,
                 config: Optional[EngineConfig] = None,
                 placement: Optional[Dict[str, str]] = None) -> None:
        self.config = config or EngineConfig()
        self.sim = Simulator()
        self.rng = RngRegistry(self.config.seed)
        self.plan = DynamicTopologyPlan(topology, schedule)
        self.current_state: TopologyState = self.plan.initial()

        # --- cluster and placement -------------------------------------
        self.cluster = Cluster(self.config.machines)
        containers = self.plan.all_containers()
        if placement is None:
            self.placement = self.cluster.place_round_robin(containers)
        else:
            for container, machine in placement.items():
                self.cluster.machines[machine].host(container)
            self.placement = dict(placement)
        self.container_indices = {name: index
                                  for index, name in enumerate(containers)}

        # --- addressing and TCALs ---------------------------------------
        self.allocator = IpAllocator()
        for container in containers:
            self.allocator.assign(container)
        self.dataplane = KollapsDataPlane(
            self.sim, placement=self.placement,
            next_control=self._next_control)
        self.tcals: Dict[str, Tcal] = {}
        for container in containers:
            tcal = Tcal(container, self.allocator,
                        rng=partial(self.rng.stream, f"netem:{container}"))
            self.tcals[container] = tcal
            self.dataplane.attach_tcal(container, tcal)

        # --- cores, and the loop's managers and drivers ------------------
        self.cores: Dict[str, EmulationCore] = {
            container: EmulationCore(container, self.tcals[container])
            for container in containers}
        self.drivers: Dict[str, "MediaDriver"] = {}
        self.managers: Dict[str, "EmulationManager"] = {}
        if self.config.enforce_bandwidth_sharing:
            self._build_loop()

        # --- fluid bulk plane --------------------------------------------
        self.fluid = FluidEngine(
            self.sim,
            ShapedConstraints(self.tcals.get, self._current_rtt),
            dt=self.config.fluid_dt, rng=self.rng)

        # --- initial state + dynamic swaps + loops ------------------------
        self._validate_physical_feasibility()
        self._apply_state(self.plan.initial())
        self._change_times = self.plan.change_times()
        for change_time in self._change_times:
            self.sim.at(change_time,
                        lambda t=change_time: self._apply_state(
                            self.plan.state_at(t)),
                        priority=-10, label="topology-swap")
        self._loop_processes: List[Process] = [
            Process(self.sim, self.config.loop_period,
                    manager.run_loop_iteration, name=f"em:{manager.machine}",
                    start_after=self.config.loop_period, priority=5)
            for manager in self.managers.values()]

    # ------------------------------------------------------------ plumbing
    def _build_loop(self) -> None:
        """One Emulation Manager per machine, each with its media driver
        connected to every other, and every core under its machine's
        manager."""
        from repro.core.manager import EmulationManager
        from repro.metadata.channels import MediaDriver
        wide = self._needs_wide_ids()
        machine_names = self.cluster.machine_names()
        for index, machine in enumerate(machine_names):
            driver = MediaDriver(
                self.sim, machine, wide_ids=wide,
                network_delay=INTERCONNECT_LATENCY)
            self.drivers[machine] = driver
            self.managers[machine] = EmulationManager(
                self.sim, machine, driver, index, self.container_indices,
                period=self.config.loop_period,
                congestion_sensitivity=self.config.congestion_sensitivity)
        for i, first in enumerate(machine_names):
            for second in machine_names[i + 1:]:
                self.drivers[first].connect(self.drivers[second])
        for container, core in self.cores.items():
            self.managers[self.placement[container]].add_core(core)

    def _validate_physical_feasibility(self) -> None:
        """§6, for engines built directly: the dilation, then each distinct
        capacity of every pre-computed state, judged by the function the
        rule book reads (:func:`~repro.cluster.machines.infeasibility`)."""
        dilation = self.config.time_dilation
        refusal = infeasibility(dilation)
        if refusal is not None:
            raise ValueError(f"time_dilation: {refusal}")
        for state in self.plan.states:
            for capacity in set(state.capacities.values()):
                refusal = infeasibility(dilation, capacity)
                if refusal is not None:
                    link = next(link for link in state.topology.links()
                                if link.properties.bandwidth == capacity)
                    raise ValueError(f"link {link.key} {refusal}")

    def apply_event_online(self, event) -> None:
        """§6 "Interactivity": apply a dynamic event *now*, online.

        Unlike the pre-computed plan this recomputes the collapse at event
        time — exact but slow for large graphs, which is the accuracy/
        interactivity trade-off the paper describes.  The collapse memo
        softens it considerably: a capacity-only event shares the previous
        collapse's routing and its shortest-path trees instead of
        re-running Dijkstra, a latency rise keeps those of the previous
        collapse that it is not on, and an event that restores an earlier
        structure (a link flapping back up) is a straight cache hit.  The copy shares every link the event
        leaves alone.  The new state is installed in every TCAL and
        manager immediately.
        """
        with telemetry.span("engine.online_event",
                            event=type(event).__name__):
            mutated = self.current_state.topology.copy()
            event.apply(mutated)
            state = TopologyState(
                time=self.sim.now,
                topology=mutated,
                collapsed=collapse(mutated),
                capacities={link.link_id: link.properties.bandwidth
                            for link in mutated.links()})
            self._apply_state(state)

    def _next_control(self) -> float:
        """The earliest instant, from now on, at which the engine acts on
        the TCALs: a manager loop tick, a fluid step or a state swap."""
        changes = self._change_times
        index = bisect_left(changes, self.sim.now)
        instant = changes[index] if index < len(changes) else float("inf")
        for process in self._loop_processes:
            instant = min(instant, process.next_tick)
        return min(instant, self.fluid.next_step())

    def _needs_wide_ids(self) -> bool:
        for state in self.plan.states:
            if len(state.topology.container_names()) > 256:
                return True
            if any(link.link_id > 255 for link in state.topology.links()):
                return True
        return False

    def _current_rtt(self, source: str, destination: str) -> float:
        collapsed = self.current_state.collapsed
        forward = collapsed.path(source, destination)
        backward = collapsed.path(destination, source)
        if forward is None:
            return 0.1
        return forward.latency + (backward.latency if backward
                                  else forward.latency)

    def _apply_state(self, state: TopologyState) -> None:
        """Install a topology snapshot into every TCAL and manager.

        Each TCAL takes its row of the collapsed table and brings the
        chains it has built so far in line with it; the rest are built
        from the row when first used.  ``O(containers + chains in use)``.
        """
        trace = telemetry.span("engine.apply_state",
                               t=round(state.time, 6))
        self.current_state = state
        collapsed = state.collapsed
        touched = 0
        for container, tcal in self.tcals.items():
            touched += tcal.install_row(partial(collapsed.path, container))
        for manager in self.managers.values():
            manager.install_state(collapsed, state.capacities)
        self.fluid.provider.epoch += 1      # chains and RTTs may have moved
        if telemetry.enabled():
            registry = telemetry.metrics
            registry.counter("engine.state_swaps").inc()
            registry.counter("engine.chains_touched").inc(touched)
            trace.set(touched=touched)
        trace.finish()

    # ------------------------------------------------------------ user API
    def start_flow(self, key: Hashable, source: str, destination: str, *,
                   protocol: str = "tcp", congestion_control: str = "cubic",
                   demand: float = float("inf"),
                   size_bits: Optional[float] = None,
                   start_time: float = 0.0) -> "FluidFlow":
        """Launch a bulk flow (iperf-style) on the fluid plane."""
        from repro.netstack.fluid.flow import FluidFlow
        flow = FluidFlow(key, source, destination, protocol=protocol,
                         congestion_control=congestion_control,
                         demand=demand, size_bits=size_bits,
                         start_time=start_time)
        return self.fluid.add_flow(flow)

    def stop_flow(self, key: Hashable) -> None:
        self.fluid.remove_flow(key)

    def run(self, until: float) -> None:
        self.sim.run(until=until)

    # ------------------------------------------------------------ telemetry
    def metadata_stats(self) -> Dict[str, "object"]:
        return {machine: driver.stats
                for machine, driver in self.drivers.items()}

    def total_metadata_wire_bytes(self) -> int:
        return sum(driver.stats.wire_bytes_sent()
                   for driver in self.drivers.values())
