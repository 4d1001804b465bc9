"""A Mininet-like centralized full-state emulator.

Mininet runs every emulated host, switch and link on one physical machine,
with veth pairs and per-switch processes (§2).  The consequences the paper
measures, and which this model reproduces from their causes:

* **1 Gb/s cap** — Mininet (htb through its API) refuses link rates above
  1 Gb/s: Table 2's "N/A" rows.  ``LinkUnsupportedError`` is raised.
* **per-switch state** — every switch tracks every connection through it;
  the first packet of each connection misses the flow table and pays a
  setup cost on the switch CPU, which also serves forwarding.  With
  connection-per-request workloads the control path saturates and
  throughput collapses as client count rises (Figure 6), while established
  flows (pings, keep-alive connections) cross in microseconds (Table 4,
  Figure 5).
* **single machine** — everything shares one host's CPU: emulating more
  elements than fit one machine fails (Table 4 "N/A" beyond 1000 elements —
  here a configurable element budget).

For well-behaved long-lived flows Mininet is accurate (same htb mechanism
as Kollaps), which Table 2/Figure 5 show: bulk flows run on the same
ground-truth fluid model, minus a small veth/userspace overhead.
"""

from __future__ import annotations

from typing import Dict, Hashable, Optional

from repro.netstack.fluid import FluidEngine, FluidFlow, GroundTruthConstraints
from repro.netstack.fullnet import FullStateNetwork, SwitchModel
from repro.sim import RngRegistry, Simulator
from repro.topology.model import Topology

__all__ = ["MininetEmulator", "LinkUnsupportedError", "ScaleError",
           "BULK_EFFICIENCY"]

_MAX_LINK_RATE = 1e9
_DEFAULT_ELEMENT_BUDGET = 1700  # hosts+switches one machine can emulate
# Userspace/veth overhead on bulk throughput: the small shortfall Mininet
# shows against bare metal in Table 2 (same order as Kollaps's own shaping
# shortfall), which that table reports separately from the shaping error.
BULK_EFFICIENCY = 0.998


class LinkUnsupportedError(ValueError):
    """Mininet cannot impose bandwidth limits greater than 1 Gb/s."""


class ScaleError(RuntimeError):
    """The single-machine deployment cannot hold this many elements."""


class MininetEmulator:
    """Centralized full-state emulation on a single machine."""

    def __init__(self, topology: Topology, *, seed: int = 0,
                 fluid_dt: float = 0.010,
                 element_budget: int = _DEFAULT_ELEMENT_BUDGET,
                 switch_forward_delay: float = 8e-6,
                 connection_setup_cost: float = 5e-3,
                 switch_capacity_pps: float = 200e3) -> None:
        elements = (len(topology.container_names()) + len(topology.bridges))
        if elements > element_budget:
            raise ScaleError(
                f"Mininet is limited to a single machine: {elements} emulated"
                f" elements exceed its budget of {element_budget}")
        for link in topology.links():
            bandwidth = link.properties.bandwidth
            if bandwidth != float("inf") and bandwidth > _MAX_LINK_RATE:
                raise LinkUnsupportedError(
                    f"link {link.key} requests {bandwidth / 1e9:.2f} Gb/s; "
                    "Mininet cannot shape above 1 Gb/s")
        self.sim = Simulator()
        self.rng = RngRegistry(seed)
        self.topology = topology

        def switch_factory(name: str) -> SwitchModel:
            return SwitchModel(forward_delay=switch_forward_delay,
                               connection_setup_cost=connection_setup_cost,
                               capacity_packets_per_s=switch_capacity_pps)

        self.network = FullStateNetwork(self.sim, topology, rng=self.rng,
                                        switch_model_factory=switch_factory)
        self.constraints = GroundTruthConstraints(
            topology, packet_rate=self.network.packet_rate)
        self.fluid = FluidEngine(self.sim, self.constraints, dt=fluid_dt,
                                 rng=self.rng)
        self.network.set_background_load(self.fluid.link_rate)
        self.network.start_usage_monitor()
        self.dataplane = self.network

    def start_flow(self, key: Hashable, source: str, destination: str, *,
                   protocol: str = "tcp", congestion_control: str = "cubic",
                   demand: float = float("inf"),
                   size_bits: Optional[float] = None,
                   start_time: float = 0.0) -> FluidFlow:
        flow = FluidFlow(key, source, destination, protocol=protocol,
                         congestion_control=congestion_control, demand=demand,
                         size_bits=size_bits, start_time=start_time)
        return self.fluid.add_flow(flow)

    def stop_flow(self, key: Hashable) -> None:
        self.fluid.remove_flow(key)

    def run(self, until: float) -> None:
        self.sim.run(until=until)
