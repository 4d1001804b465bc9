"""A Maxinet-like distributed full-state emulator with external controller.

Maxinet spreads Mininet workers across machines, tunnelling inter-worker
links, and its emulated switches consult an external OpenFlow controller
(POX in the paper's best configuration).  The error signature Table 4
measures comes from:

* **controller round trips** — a switch seeing a flow it has no rule for
  punts the packet to the controller (tens of milliseconds with POX) before
  forwarding; rules age out, so long experiments keep paying this price,
* **tunnelling overhead** — packets crossing workers pay an encapsulation
  and physical-hop cost on every traversal,
* **controller load** — one controller serves many switches; its service
  queue adds latency that grows with topology size.

The paper reports RTT deviations of up to 11 ms (1000 elements) and 40 ms
(2000) against theoretical values — an order above Kollaps — and gives up
at 4000.  The defaults below are calibrated to that regime via the causes
above (rule timeout, POX service time), not fitted per-experiment.
"""

from __future__ import annotations

from typing import Dict, Hashable, Tuple

from repro.baselines.baremetal import BareMetalTestbed
from repro.netstack.fullnet import SwitchModel
from repro.netstack.packet import Packet
from repro.topology.model import Topology

__all__ = ["MaxinetEmulator", "ControllerModel"]

SWITCH_FORWARD_DELAY = 30e-6
TUNNEL_DELAY = 120e-6   # per cross-worker hop


class ControllerModel:
    """The external OpenFlow controller: a shared single server."""

    def __init__(self, *, service_time: float = 1.2e-3,
                 base_rtt: float = 4e-3, rule_timeout: float = 0.04) -> None:
        """``rule_timeout`` is the flow-rule lifetime.  POX installs rules
        with a 10 s idle timeout; experiment time here is compressed about
        two orders of magnitude against the paper's 10-minute runs, so the
        default scales the timeout accordingly — each probe keeps paying
        controller round trips at steady state, which is the deviation
        signature Table 4 measures."""
        self.service_time = service_time
        self.base_rtt = base_rtt
        self.rule_timeout = rule_timeout
        self._horizon = 0.0
        self._rules: Dict[Tuple[str, Hashable], float] = {}
        self.packet_ins = 0

    def consult(self, now: float, switch: str, flow_key: Hashable) -> float:
        """Delay added at time ``now`` to a packet at ``switch`` for
        ``flow_key``.

        Zero when a fresh rule exists; otherwise a controller round trip
        (queueing at the shared controller included) installs one.
        """
        expiry = self._rules.get((switch, flow_key))
        if expiry is not None and expiry > now:
            return 0.0
        self.packet_ins += 1
        start = max(now, self._horizon)
        self._horizon = start + self.service_time
        delay = (start - now) + self.service_time + self.base_rtt
        self._rules[(switch, flow_key)] = now + delay + self.rule_timeout
        return delay


class _ControlledSwitch(SwitchModel):
    """A worker's switch: forwards, after asking the controller for a rule."""

    def __init__(self, name: str, controller: ControllerModel) -> None:
        super().__init__(forward_delay=SWITCH_FORWARD_DELAY)
        self.name = name
        self.controller = controller

    def processing_delay(self, now: float, connection_key) -> float:
        return (super().processing_delay(now, connection_key)
                + self.controller.consult(now, self.name, connection_key))


class MaxinetEmulator(BareMetalTestbed):
    """Distributed full-state emulation across ``workers`` machines."""

    def __init__(self, topology: Topology, *, workers: int = 4, seed: int = 0,
                 fluid_dt: float = 0.010) -> None:
        controller = ControllerModel()
        super().__init__(
            topology, seed=seed, fluid_dt=fluid_dt,
            switch_model=lambda name: _ControlledSwitch(name, controller))
        self.controller = controller
        # Workers partition the switches; a link whose endpoints live on
        # different workers is tunnelled.  Partitioning is hash-based, as
        # Maxinet's default placement effectively is for generated graphs.
        self._worker_of = {bridge: index % workers for index, bridge
                           in enumerate(sorted(topology.bridges))}
        self.dataplane = self

    # --------------------------------------------------------- packet plane
    def reachable(self, source: str, destination: str) -> bool:
        return self.network.reachable(source, destination)

    def send(self, packet: Packet, deliver, on_drop=None,
             on_backpressure=None) -> None:
        """Forward with tunnelling delay added per cross-worker hop
        (:meth:`DataPlane.send`; nothing here pushes back)."""
        path = self.network.collapsed.path(packet.source, packet.destination)
        extra = 0.0
        if path is not None:
            bridges = [node for node in path.node_path
                       if node in self._worker_of]
            for first, second in zip(bridges, bridges[1:]):
                if self._worker_of[first] != self._worker_of[second]:
                    extra += TUNNEL_DELAY

        def tunnelled_deliver(delivered_packet: Packet) -> None:
            if extra > 0.0:
                self.sim.after(extra, lambda: deliver(delivered_packet))
            else:
                deliver(delivered_packet)

        self.network.send(packet, tunnelled_deliver, on_drop=on_drop)
