"""The emulation engine: Kollaps end-to-end over a simulated cluster.

:class:`EmulationEngine` is the top-level facade a user (or the deployment
generator) drives:

* builds the cluster and places containers,
* assigns IP addresses and hands every container's TCAL its row of the
  pre-computed collapsed topology (chains are built from it on first use),
* starts one Emulation Manager per machine, connected by media drivers,
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

from dataclasses import dataclass, field
from functools import partial
from typing import Dict, Hashable, List, Optional, Tuple

from repro import telemetry
from repro.cluster import Cluster
from repro.core.collapse import collapse
from repro.core.dynamic import DynamicTopologyPlan, TopologyState
from repro.core.emucore import EmulationCore
from repro.core.manager import EmulationManager
from repro.metadata.channels import MediaDriver
from repro.netstack.fluid import FluidEngine, FluidFlow, ShapedConstraints
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
    container_network_delay: float = 35e-6
    physical_network_delay: float = 80e-6
    fluid_dt: float = 0.010
    # When False, no emulation loop runs: shaping stays at the collapsed
    # path properties (useful for latency-only experiments and ablations).
    enforce_bandwidth_sharing: bool = True
    # §7 future work: publish metadata only when flow state changes,
    # rather than every loop period.
    metadata_on_change_only: bool = False
    # §7 future work: time dilation.  A factor of N means virtual time
    # runs N times slower than the cluster, so emulated link capacities up
    # to N x the physical interconnect are feasible (§6's "beyond the
    # physical links" limitation).  Checked at construction.
    time_dilation: float = 1.0
    # When False, skip the physical-feasibility check entirely (pure
    # simulation studies that don't model a concrete cluster).
    enforce_physical_limits: bool = True


class EmulationEngine:
    """A fully wired Kollaps instance over a simulated cluster."""

    def __init__(self, topology: Topology,
                 schedule: Optional[EventSchedule] = None, *,
                 config: Optional[EngineConfig] = None,
                 placement: Optional[Dict[str, str]] = None) -> None:
        self.config = config or EngineConfig()
        if self.config.time_dilation < 1.0:
            raise ValueError("time dilation factor must be >= 1")
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
            container_network_delay=self.config.container_network_delay,
            physical_network_delay=self.config.physical_network_delay)
        self.tcals: Dict[str, Tcal] = {}
        for container in containers:
            tcal = Tcal(container, self.allocator,
                        rng=self.rng.stream(f"netem:{container}"))
            self.tcals[container] = tcal
            self.dataplane.attach_tcal(container, tcal)

        # --- managers, drivers, cores ------------------------------------
        wide = self._needs_wide_ids()
        self.drivers: Dict[str, MediaDriver] = {}
        self.managers: Dict[str, EmulationManager] = {}
        machine_names = self.cluster.machine_names()
        for index, machine in enumerate(machine_names):
            driver = MediaDriver(
                self.sim, machine, wide_ids=wide,
                network_delay=self.cluster.interconnect_latency)
            self.drivers[machine] = driver
            self.managers[machine] = EmulationManager(
                self.sim, machine, driver, index, self.container_indices,
                period=self.config.loop_period,
                congestion_sensitivity=self.config.congestion_sensitivity,
                update_on_change_only=self.config.metadata_on_change_only)
        for i, first in enumerate(machine_names):
            for second in machine_names[i + 1:]:
                self.drivers[first].connect(self.drivers[second])
        self.cores: Dict[str, EmulationCore] = {}
        for container in containers:
            machine = self.placement[container]
            core = EmulationCore(container, self.tcals[container])
            self.cores[container] = core
            self.managers[machine].add_core(core)

        # --- fluid bulk plane --------------------------------------------
        self.fluid = FluidEngine(
            self.sim,
            ShapedConstraints(self.tcals.get, self._current_rtt),
            dt=self.config.fluid_dt, rng=self.rng)

        # --- initial state + dynamic swaps + loops ------------------------
        if self.config.enforce_physical_limits:
            self._validate_physical_feasibility()
        self._apply_state(self.plan.initial())
        for change_time in self.plan.change_times():
            self.sim.at(change_time,
                        lambda t=change_time: self._apply_state(
                            self.plan.state_at(t)),
                        priority=-10, label="topology-swap")
        self._loop_processes: List[Process] = []
        if self.config.enforce_bandwidth_sharing:
            for manager in self.managers.values():
                self._loop_processes.append(Process(
                    self.sim, self.config.loop_period,
                    manager.run_loop_iteration, name=f"em:{manager.machine}",
                    start_after=self.config.loop_period, priority=5))

    # ------------------------------------------------------------ plumbing
    def _validate_physical_feasibility(self) -> None:
        """§6: emulated capacity must fit the cluster, unless dilated.

        "It is impossible to emulate a link of 10 Gb/s if Kollaps is
        running on a cluster with 1 Gb/s connections."  Time dilation (§7)
        relaxes the bound by its factor: virtual time runs slower, so a
        dilated 100 Gb/s link only needs 100/TDF Gb/s of real capacity.
        """
        budget = self.cluster.interconnect_rate * self.config.time_dilation
        for state in self.plan.states:
            for link in state.topology.links():
                bandwidth = link.properties.bandwidth
                if bandwidth != float("inf") and bandwidth > budget:
                    raise ValueError(
                        f"link {link.key} asks for {bandwidth / 1e9:.1f} Gb/s"
                        f" but the cluster interconnect provides "
                        f"{self.cluster.interconnect_rate / 1e9:.1f} Gb/s"
                        f" (time dilation {self.config.time_dilation:g}x);"
                        " raise EngineConfig.time_dilation or disable"
                        " enforce_physical_limits")

    def apply_event_online(self, event) -> None:
        """§6 "Interactivity": apply a dynamic event *now*, online.

        Unlike the pre-computed plan this recomputes the collapse at event
        time — exact but slow for large graphs, which is the accuracy/
        interactivity trade-off the paper describes.  The collapse memo
        softens it considerably: a capacity-only event keeps the cached
        shortest-path trees instead of re-running Dijkstra, and an event
        that restores an earlier structure (a link flapping back up) is a
        straight cache hit.  The new state is installed in every TCAL and
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
                   start_time: float = 0.0) -> FluidFlow:
        """Launch a bulk flow (iperf-style) on the fluid plane."""
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

    def metadata_rate_bytes_per_s(self) -> float:
        if self.sim.now <= 0:
            return 0.0
        return self.total_metadata_wire_bytes() / self.sim.now
