"""The full-state packet network: every link and switch emulated hop-by-hop.

This is the substrate that plays two roles in the evaluation:

* **bare-metal ground truth** — with zero switch overhead it behaves like
  the authors' physical testbed (§5.3's 1 Gb/s switch, the reference every
  deviation is measured against);
* **full-state emulators** — the Mininet/Maxinet baselines reuse it with
  non-zero per-packet switch processing costs and per-connection state (see
  :mod:`repro.baselines`).

Routing is static shortest-path, recomputed whenever the topology changes
(switch forwarding tables in a real deployment).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from repro.core.collapse import collapse
from repro.netstack.link import PacketLink
from repro.netstack.packet import Packet
from repro.sim import RngRegistry, Simulator

from repro.topology.model import Topology

__all__ = ["FullStateNetwork", "SwitchModel"]


class SwitchModel:
    """Per-switch processing costs for full-state emulation baselines.

    The switch is one CPU shared between two kinds of work, serialized on a
    single horizon:

    * **forwarding** — every packet takes ``1/capacity_packets_per_s`` of
      CPU (plus the fixed ``forward_delay`` pipeline latency);
    * **connection setup** — the first packet of a connection misses the
      flow table and pays ``connection_setup_cost`` of CPU before it can be
      forwarded.

    Established flows therefore cross the switch in microseconds — which is
    why Mininet's ping RTTs beat Kollaps's in Table 4 (no container
    networking, no physical hop) — while connection-per-request workloads
    hammer the control path and collapse as load grows (Figure 6).  The
    paper names exactly this state maintenance as Mininet's short-flow
    weakness.
    """

    def __init__(self, forward_delay: float = 0.0,
                 connection_setup_cost: float = 0.0,
                 capacity_packets_per_s: float = float("inf")) -> None:
        self.forward_delay = forward_delay
        self.connection_setup_cost = connection_setup_cost
        self.capacity_packets_per_s = capacity_packets_per_s
        self.connections: set = set()
        self.setups = 0
        self._horizon = 0.0

    def processing_delay(self, now: float, connection_key) -> float:
        """Delay this switch adds to one packet of ``connection_key``."""
        service = 0.0
        if connection_key is not None and \
                connection_key not in self.connections:
            self.connections.add(connection_key)
            self.setups += 1
            service += self.connection_setup_cost
        if self.capacity_packets_per_s != float("inf"):
            service += 1.0 / self.capacity_packets_per_s
        delay = self.forward_delay
        if service > 0.0:
            # Queue on the shared CPU: setups delay forwarding and
            # vice versa.
            start = max(now, self._horizon)
            self._horizon = start + service
            delay += (start - now) + service
        return delay


class FullStateNetwork:
    """Hop-by-hop packet forwarding over the complete topology."""

    def __init__(self, sim: Simulator, topology: Topology, *,
                 rng: Optional[RngRegistry] = None,
                 switch_model_factory: Optional[
                     Callable[[str], SwitchModel]] = None) -> None:
        self.sim = sim
        self.rng = rng or RngRegistry(0)
        self.switch_model_factory = switch_model_factory
        self.topology: Optional[Topology] = None
        self._links: Dict[int, PacketLink] = {}
        self.switches: Dict[str, SwitchModel] = {}
        self._background_lookup: Optional[Callable[[int], float]] = None
        #: Windowed per-link packet rates (EWMA), maintained by the usage
        #: monitor; what the fluid plane reads as occupied capacity.  It
        #: holds only non-zero rates, and stays the same dict for the
        #: network's life.
        self.packet_rates: Dict[int, float] = {}
        self._monitor_baseline: Dict[int, float] = {}
        self._monitor: Optional[object] = None
        self.install_topology(topology)

    def install_topology(self, topology: Topology) -> None:
        """(Re)build links, switches and routes — a topology change event."""
        self.topology = topology
        self._links = {}
        for link in topology.links():
            # A link's properties are fixed until the next rebuild: only a
            # lossy or jittery one ever draws, so only it gets its stream.
            properties = link.properties
            stream = (self.rng.stream(f"link:{link.link_id}")
                      if properties.loss > 0.0 or properties.jitter > 0.0
                      else None)
            self._links[link.link_id] = PacketLink(
                self.sim, properties, rng=stream,
                name=f"{link.source}->{link.destination}",
                link_id=link.link_id)
        #: The forwarding tables: ``collapsed.path(a, b)`` is the route.
        self.collapsed = collapse(topology)
        for name in topology.bridges:
            if name not in self.switches and self.switch_model_factory:
                self.switches[name] = self.switch_model_factory(name)
        if self._background_lookup is not None:
            self._apply_background_load()
        self._monitor_baseline = {}

    # ------------------------------------------------ cross-plane coupling
    def set_background_load(self, lookup: Callable[[int], float]) -> None:
        """Couple the fluid plane in: bulk traffic occupies link capacity.

        ``lookup(link_id)`` returns the bulk bits/s currently allocated on
        that physical link (:meth:`repro.netstack.fluid.FluidEngine.link_rate`).
        """
        self._background_lookup = lookup
        self._apply_background_load()

    def _apply_background_load(self) -> None:
        for link in self._links.values():
            link.background_load = self._background_lookup

    def start_usage_monitor(self, period: float = 0.05,
                            alpha: float = 0.5) -> None:
        """Sample per-link packet rates every ``period`` seconds (EWMA).

        The counterpart of the Emulation Manager's usage polling, but for
        the ground-truth systems: it feeds
        :class:`~repro.netstack.fluid.GroundTruthConstraints` the packet
        plane's share of each wire.
        """
        if self._monitor is not None:
            return
        rates = self.packet_rates

        def sample() -> None:
            baseline = self._monitor_baseline
            for link_id, link in self._links.items():
                sent = link.bits_sent
                previous = baseline.get(link_id, 0.0)
                smoothed = rates.get(link_id, 0.0)
                if sent == previous and not smoothed:
                    continue        # idle: its rate would be 0.0 again
                baseline[link_id] = sent
                rate = max(sent - previous, 0.0) / period
                smoothed = alpha * rate + (1.0 - alpha) * smoothed
                if smoothed:
                    rates[link_id] = smoothed
                else:
                    rates.pop(link_id, None)

        from repro.sim import Process
        self._monitor = Process(self.sim, period, sample,
                                name="packet-usage-monitor", priority=9)

    def reachable(self, source: str, destination: str) -> bool:
        return self.collapsed.path(source, destination) is not None

    def send(self, packet: Packet, deliver, on_drop=None,
             on_backpressure=None) -> None:
        """:meth:`DataPlane.send`; links drop, they never push back."""
        path = self.collapsed.path(packet.source, packet.destination)
        if path is None:
            if on_drop is not None:
                on_drop(packet)
            return
        self._forward(packet, path.link_ids, path.node_path, 0, deliver,
                      on_drop)

    def send_at(self, time: float, packet: Packet, deliver,
                on_drop=None) -> None:
        """:meth:`DataPlane.send_at`: ``send`` scheduled at ``time``."""
        self.sim.at(time, self.send, packet, deliver, on_drop)

    def _forward(self, packet: Packet, route: Tuple[int, ...],
                 nodes: Tuple[str, ...], hop: int, deliver, on_drop) -> None:
        if hop >= len(route):
            deliver(packet)
            return
        # Switch processing before entering hop's egress link (the node at
        # position `hop` is the forwarding element, except the source host).
        extra_delay = 0.0
        if hop > 0:
            switch = self.switches.get(nodes[hop])
            if switch is not None:
                connection = (packet.source, packet.destination, packet.kind)
                extra_delay = switch.processing_delay(self.sim.now, connection)
        link = self._links.get(route[hop])
        if link is None:
            if on_drop is not None:
                on_drop(packet)
            return

        def enter_link(packet=packet):
            ok = link.transmit(
                packet,
                lambda p: self._forward(p, route, nodes, hop + 1,
                                        deliver, on_drop))
            if not ok and on_drop is not None:
                on_drop(packet)

        if extra_delay > 0.0:
            self.sim.after(extra_delay, enter_link)
        else:
            enter_link()
