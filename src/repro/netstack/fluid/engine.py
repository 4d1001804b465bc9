"""The fluid integrator and its constraint providers.

Every step the engine asks its :class:`ConstraintProvider` how the world
currently constrains each flow:

* :class:`GroundTruthConstraints` — physical link capacities along each
  flow's (collapsed) route: this is what a bare-metal network, or an
  emulator that models every element, enforces.
* :class:`ShapedConstraints` — one private pseudo-link per flow whose
  capacity is the sender's htb rate towards that destination, plus the
  netem loss probability: this is what a Kollaps-emulated container
  experiences (its world *is* the TCAL chain).

Offered rates are allocated with the RTT-weighted max-min solver (the
equilibrium of competing TCP flows); flows that offered more than they were
granted at a saturated link receive a loss signal, and netem loss is drawn
per-packet from a seeded stream.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, Hashable, Iterable, List, Mapping, Optional, Tuple

from repro import telemetry
from repro.core.collapse import CollapsedTopology, collapse
from repro.core.sharing import FlowDemand, rtt_aware_max_min
from repro.netstack.fluid.flow import FluidFlow
from repro.sim import Process, RngRegistry, Simulator
from repro.topology.model import Topology

__all__ = ["FluidEngine", "ConstraintProvider", "GroundTruthConstraints",
           "ShapedConstraints"]


class ConstraintProvider:
    """How the network constrains flows at this instant."""

    # Whether a saturated constraint drops packets (router/switch buffers)
    # or merely back-pressures the sender (htb + TSQ, §3 "Congestion"): the
    # defining behavioural difference between the ground-truth network and
    # a Kollaps-shaped container, and the reason Kollaps must inject netem
    # loss explicitly.
    saturation_drops: bool = True

    def constraints_for(self, flows: List[FluidFlow]) -> Tuple[
            Mapping[int, float], Dict[Hashable, Tuple[int, ...]],
            Dict[Hashable, float]]:
        """Return (link capacities, flow -> link ids, flow -> loss prob)."""
        raise NotImplementedError

    def rtt_for(self, flow: FluidFlow) -> float:
        """Base round-trip time the flow currently experiences."""
        raise NotImplementedError


class GroundTruthConstraints(ConstraintProvider):
    """Physical links along each flow's route (bare-metal behaviour).

    ``packet_rate`` optionally reports the packet plane's recent bits/s on
    a link id; bulk flows then see that share of the wire as occupied.
    The two planes arbitrate max-min style: the fluid aggregate never gets
    pushed below half the wire while the packet plane is active (and the
    packet plane is throttled symmetrically, see
    :meth:`~repro.netstack.fullnet.FullStateNetwork.set_background_load`),
    which is the equilibrium of TCP aggregates sharing a link.
    """

    def __init__(self, topology: Topology, *,
                 packet_rate: Optional[Callable[[int], float]] = None
                 ) -> None:
        self.packet_rate = packet_rate
        self.install_topology(topology)

    def install_topology(self, topology: Topology) -> None:
        self.topology = topology
        self.collapsed = collapse(topology)
        self._capacities = {link.link_id: link.properties.bandwidth
                            for link in topology.links()}

    def _effective_capacities(self) -> Mapping[int, float]:
        if self.packet_rate is None:
            return self._capacities
        effective: Dict[int, float] = {}
        for link_id, capacity in self._capacities.items():
            if capacity == float("inf"):
                effective[link_id] = capacity
                continue
            occupied = self.packet_rate(link_id)
            effective[link_id] = max(capacity - occupied, capacity / 2.0)
        return effective

    def constraints_for(self, flows):
        routes: Dict[Hashable, Tuple[int, ...]] = {}
        loss: Dict[Hashable, float] = {}
        for flow in flows:
            path = self.collapsed.path(flow.source, flow.destination)
            if path is None:
                routes[flow.key] = ()
                loss[flow.key] = 1.0
                continue
            routes[flow.key] = path.link_ids
            loss[flow.key] = path.properties.loss
        return self._effective_capacities(), routes, loss

    def rtt_for(self, flow: FluidFlow) -> float:
        forward = self.collapsed.path(flow.source, flow.destination)
        backward = self.collapsed.path(flow.destination, flow.source)
        if forward is None or backward is None:
            return flow.rtt
        return forward.latency + backward.latency


class ShapedConstraints(ConstraintProvider):
    """Per-flow htb rate + netem loss, as seen inside a Kollaps container.

    The provider reads each sender's TCAL lazily through ``tcal_lookup`` so
    rate/loss changes made by the Emulation Manager between steps take
    effect immediately — exactly like the kernel picking up a netlink
    update.
    """

    # htb back-pressures instead of dropping: a flow capped by its shaping
    # class receives no loss signal (that is netem's job, via the EM).
    saturation_drops = False

    def __init__(self, tcal_lookup: Callable[[str], "object"],
                 rtt_lookup: Callable[[str, str], float]) -> None:
        self.tcal_lookup = tcal_lookup
        self.rtt_lookup = rtt_lookup
        self._pseudo_ids: Dict[Hashable, int] = {}

    def _pseudo_link(self, key: Hashable) -> int:
        if key not in self._pseudo_ids:
            self._pseudo_ids[key] = len(self._pseudo_ids)
        return self._pseudo_ids[key]

    def constraints_for(self, flows):
        capacities: Dict[int, float] = {}
        routes: Dict[Hashable, Tuple[int, ...]] = {}
        loss: Dict[Hashable, float] = {}
        for flow in flows:
            tcal = self.tcal_lookup(flow.source)
            if tcal is None or not tcal.has_destination(flow.destination):
                routes[flow.key] = ()
                loss[flow.key] = 1.0
                continue
            shaping = tcal.shaping_for(flow.destination)
            pseudo = self._pseudo_link((flow.source, flow.destination))
            capacities[pseudo] = shaping.htb.rate
            routes[flow.key] = (pseudo,)
            loss[flow.key] = shaping.netem.loss
        return capacities, routes, loss

    def rtt_for(self, flow: FluidFlow) -> float:
        return self.rtt_lookup(flow.source, flow.destination)


class FluidEngine:
    """Fixed-step integrator over a set of :class:`FluidFlow` objects."""

    def __init__(self, sim: Simulator, provider: ConstraintProvider, *,
                 dt: float = 0.010, rng: Optional[RngRegistry] = None,
                 buffer_bits: float = 1500 * 8.0 * 400,
                 usage_recorder: Optional[Callable[[FluidFlow, float], None]] = None,
                 pressure_recorder: Optional[Callable[[FluidFlow, float], None]] = None
                 ) -> None:
        """``buffer_bits`` models the bottleneck queue a flow may occupy
        before overflow: a window-limited flow only receives a loss signal
        once its standing queue (``cwnd - achieved * RTT``) exceeds it, which
        is what lets a single TCP flow hold a link near 100 % utilisation."""
        self.sim = sim
        self.provider = provider
        self.dt = dt
        self.rng = (rng or RngRegistry(0)).stream("fluid-loss")
        self.buffer_bits = buffer_bits
        self.usage_recorder = usage_recorder
        # Offered-minus-achieved, reported like htb back-pressure so the
        # Emulation Manager can see a window-inflated sender pushing past
        # its shaping (the "requested bandwidth" of §3's congestion model).
        self.pressure_recorder = pressure_recorder
        self.flows: Dict[Hashable, FluidFlow] = {}
        self.history: List[Tuple[float, Dict[Hashable, float]]] = []
        self.record_history = True
        # Allocated bits/s per link id last step — what the packet plane
        # reads to model bulk traffic occupying shared wires.
        self._link_rates: Dict[int, float] = {}
        self._process = Process(sim, dt, self._step, name="fluid-engine",
                                priority=10)

    # ----------------------------------------------------------- flow admin
    def add_flow(self, flow: FluidFlow) -> FluidFlow:
        if flow.key in self.flows:
            raise ValueError(f"duplicate flow key {flow.key!r}")
        flow.rtt = max(self.provider.rtt_for(flow), 1e-4)
        self.flows[flow.key] = flow
        return flow

    def remove_flow(self, key: Hashable) -> None:
        self.flows.pop(key, None)

    def active_flows(self) -> List[FluidFlow]:
        now = self.sim.now
        return [flow for flow in self.flows.values()
                if not flow.finished and flow.start_time <= now]

    def throughput(self, key: Hashable) -> float:
        flow = self.flows.get(key)
        return flow.achieved_rate if flow is not None else 0.0

    def link_rate(self, link_id: int) -> float:
        """Bulk traffic allocated over ``link_id`` in the last step."""
        return self._link_rates.get(link_id, 0.0)

    # ------------------------------------------------------------- stepping
    def _step(self) -> None:
        if telemetry.enabled():
            with telemetry.span("fluid.step",
                                flows=len(self.flows)) as trace:
                self._step_inner()
                trace.set(t=round(self.sim.now, 6))
            telemetry.metrics.counter("fluid.steps").inc()
        else:
            self._step_inner()

    def _step_inner(self) -> None:
        flows = self.active_flows()
        if not flows:
            self._link_rates = {}
            if self.record_history:
                self.history.append((self.sim.now, {}))
            return
        capacities, routes, loss = self.provider.constraints_for(flows)
        demands = []
        for flow in flows:
            flow.rtt = max(self.provider.rtt_for(flow), 1e-4)
            demands.append(FlowDemand(
                key=flow.key, rtt=flow.rtt, links=routes.get(flow.key, ()),
                demand=flow.desired_rate()))
        allocation = rtt_aware_max_min(demands, capacities)

        # Which links are saturated this step (for loss signalling)?
        link_usage: Dict[int, float] = {}
        for flow in flows:
            for link_id in routes.get(flow.key, ()):
                link_usage[link_id] = link_usage.get(link_id, 0.0) + \
                    allocation.get(flow.key, 0.0)
        saturated = {link_id for link_id, used in link_usage.items()
                     if link_id in capacities
                     and used >= capacities[link_id] * (1.0 - 1e-6)}
        self._link_rates = link_usage

        snapshot: Dict[Hashable, float] = {}
        now = self.sim.now
        for flow in flows:
            achieved = allocation.get(flow.key, 0.0)
            desired = flow.desired_rate()
            # Standing queue this flow builds at its bottleneck: the part of
            # the window the path cannot carry.  Loss only once it overflows
            # the bottleneck buffer.
            queue_bits = max(0.0, (desired - achieved) * flow.rtt)
            congested = (self.provider.saturation_drops
                         and queue_bits > self.buffer_bits and any(
                             link_id in saturated
                             for link_id in routes.get(flow.key, ())))
            explicit_loss = loss.get(flow.key, 0.0)
            lost = congested
            if not lost and explicit_loss > 0.0 and achieved > 0.0:
                packets = max(1.0, achieved * self.dt / flow.mss_bits)
                event_probability = 1.0 - (1.0 - explicit_loss) ** packets
                lost = self.rng.random() < event_probability
            # Delivered goodput is reduced by explicit link loss.
            delivered = achieved * (1.0 - explicit_loss)
            flow.advance(now, self.dt, delivered, lost)
            snapshot[flow.key] = delivered
            if self.usage_recorder is not None:
                self.usage_recorder(flow, delivered * self.dt)
            if self.pressure_recorder is not None:
                self._report_pressure(flow, desired, achieved)
        if self.record_history:
            self.history.append((now, snapshot))

    def _report_pressure(self, flow: FluidFlow, offered: float,
                         achieved: float) -> None:
        """Report gross offered-over-achieved excess as back-pressure.

        This is the "requested bandwidth surpasses the available" signal
        of §3's congestion model, with two guards shaped by how a real
        sender behaves behind a shaper:

        * a window parked modestly above its allocation — the TSQ
          equilibrium, up to ~40 % — reports nothing;
        * for TCP the excess must come from genuine window inflation (more
          than 16 MSS of standing queue), not from the 2-MSS minimum
          window exceeding a tiny share on a short-RTT path, which would
          otherwise deadlock the flow against permanent injected loss.

        UDP has neither guard on its sending rate — it "simply continues
        to send packets at the application sending rate" — so only the
        ratio test applies.
        """
        if offered == float("inf"):
            # An unbounded sender: bound the report so the loss signal
            # stays proportional, not infinite.
            offered = achieved * 4.0
        if offered <= 0.0 or achieved >= 0.70 * offered:
            return
        if flow.protocol == "tcp":
            inflation = flow.cwnd - achieved * flow.rtt
            if inflation <= 16 * flow.mss_bits:
                return
        self.pressure_recorder(flow, (offered - achieved) * self.dt)

    def stop(self) -> None:
        self._process.stop()

    # ------------------------------------------------------------ telemetry
    def mean_throughput(self, key: Hashable, start: float = 0.0,
                        end: float = float("inf")) -> float:
        """Average delivered rate of ``key`` over [start, end)."""
        samples = [rates.get(key, 0.0) for time, rates in self.history
                   if start <= time < end]
        if not samples:
            return 0.0
        return sum(samples) / len(samples)

    def series(self, key: Hashable) -> List[Tuple[float, float]]:
        return [(time, rates.get(key, 0.0)) for time, rates in self.history]
