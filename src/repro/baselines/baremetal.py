"""The full-state testbed: bare metal, and every full-state emulator on it.

Runs workloads over the *physical* topology with no emulation layer at all:
packets traverse every link and switch hop-by-hop
(:class:`~repro.netstack.fullnet.FullStateNetwork`), and bulk flows are
integrated against the real link capacities
(:class:`~repro.netstack.fluid.GroundTruthConstraints`).  With no switch
model this is the authors' hardware testbed, the ground truth for every
accuracy comparison; Mininet and Maxinet keep the same full network state
and differ only in what a packet costs at a switch
(:mod:`repro.baselines.mininet`, :mod:`repro.baselines.maxinet`).
"""

from __future__ import annotations

from typing import Callable, Hashable, Optional

from repro.netstack.fluid import (
    FluidEngine,
    FluidFlow,
    GroundTruthConstraints,
)
from repro.netstack.fullnet import FullStateNetwork, SwitchModel
from repro.sim import RngRegistry, Simulator
from repro.topology.model import Topology

__all__ = ["BareMetalTestbed"]


class BareMetalTestbed:
    """A physical deployment of the topology, switches costed by
    ``switch_model(name)`` (``None``: zero switch overhead)."""

    def __init__(self, topology: Topology, *, seed: int = 0,
                 fluid_dt: float = 0.010,
                 switch_model: Optional[Callable[[str], SwitchModel]] = None
                 ) -> None:
        self.sim = Simulator()
        self.rng = RngRegistry(seed)
        self.topology = topology
        self.network = FullStateNetwork(self.sim, topology, rng=self.rng,
                                        switch_model_factory=switch_model)
        self.constraints = GroundTruthConstraints(
            topology, packet_rates=self.network.packet_rates)
        self.fluid = FluidEngine(self.sim, self.constraints, dt=fluid_dt,
                                 rng=self.rng)
        # Both planes ride the same physical wires: packets see capacity
        # occupied by bulk flows and vice versa.
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
