"""The fluid integrator and its constraint providers.

The engine asks its :class:`ConstraintProvider` how the world constrains
each flow — once per flow and topology state for what only a state install
can change (route, base RTT, the shaping chain), every step for what moves
between steps (the rate and loss that chain carries, the wire share the
packet plane occupies):

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

from bisect import bisect_left
from itertools import zip_longest
from typing import Callable, Dict, Hashable, List, Mapping, Optional, Tuple

from repro import telemetry
from repro.core.collapse import collapse
from repro.core.sharing import FlowDemand, rtt_aware_max_min
from repro.netstack.fluid.flow import FluidFlow
from repro.sim import Process, RngRegistry, Simulator
from repro.topology.model import Topology

__all__ = ["FluidEngine", "FlowEntry", "ConstraintProvider",
           "GroundTruthConstraints", "ShapedConstraints"]

_INFINITY = float("inf")
# A sender holding at least this share of what it offers is at the TSQ
# equilibrium behind its shaper and exerts no back-pressure worth reporting.
_CONTENT_SHARE = 0.70


class FlowEntry:
    """What the integrator keeps per flow between steps.

    ``links``, ``rtt``, ``loss`` and ``shaping`` are how the provider
    constrains the flow: filled by :meth:`ConstraintProvider.resolve` on
    the first step that integrates the flow and again once the provider's
    ``epoch`` has moved — nothing else can change them.  ``shaping`` is the
    live chain a shaped sender transmits through (``None`` on a physical
    network): its rate and loss are read, and its counters fed, every step.

    The entry is also the flow's :class:`~repro.core.sharing.FlowDemand`
    as far as the solver can tell (``key``, ``rtt``, ``links``, ``demand``,
    ``path_bandwidth``, ``weight``); ``demand`` is the one field a step
    writes.  ``rates`` is the flow key's column of delivered rates, one
    value per step from the engine's first.
    """

    __slots__ = ("flow", "key", "links", "rtt", "loss", "shaping", "demand",
                 "rates")

    path_bandwidth = _INFINITY
    weight = FlowDemand.weight

    def __init__(self, flow: FluidFlow, rates: List[float]) -> None:
        self.flow = flow
        self.key = flow.key
        self.links: Optional[Tuple[int, ...]] = None    # None: unresolved
        self.rtt = flow.rtt
        self.loss = 0.0
        self.shaping = None
        self.demand = 0.0
        self.rates = rates


class ConstraintProvider:
    """How the network constrains flows at this instant."""

    # Whether a saturated constraint drops packets (router/switch buffers)
    # or merely back-pressures the sender (htb + TSQ, §3 "Congestion"): the
    # defining behavioural difference between the ground-truth network and
    # a Kollaps-shaped container, and the reason Kollaps must inject netem
    # loss explicitly.
    saturation_drops: bool = True

    # Moved by whoever changes what :meth:`resolve` or :meth:`rtt_for`
    # would answer (a topology state install); the engine re-resolves its
    # entries when it sees a new value and never otherwise.
    epoch: int = 0

    def resolve(self, entry: FlowEntry) -> None:
        """Fill ``entry.links``, ``.loss`` and ``.shaping`` for its flow.

        An unreachable destination is ``links = ()`` with ``loss = 1.0``.
        """
        raise NotImplementedError

    def capacities(self, active: List[FlowEntry]) -> Mapping[int, float]:
        """Capacity, this step, of (at least) every link ``active`` cross;
        may refresh ``entry.loss`` where loss is not fixed per epoch.

        The engine keeps the map to compare with the next step's: return
        a new one, or one that is never changed after it is returned."""
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
        self.epoch += 1

    def resolve(self, entry: FlowEntry) -> None:
        flow = entry.flow
        path = self.collapsed.path(flow.source, flow.destination)
        if path is None:
            entry.links = ()
            entry.loss = 1.0
        else:
            entry.links = path.link_ids
            entry.loss = path.properties.loss

    def capacities(self, active: List[FlowEntry]) -> Mapping[int, float]:
        packet_rate = self.packet_rate
        static = self._capacities
        if packet_rate is None:
            return static
        # Only the wires in use: the result is looked up by link id, never
        # iterated, so neither its order nor the other links matter.
        effective: Dict[int, float] = {}
        for entry in active:
            for link_id in entry.links:
                if link_id in effective:
                    continue
                capacity = static[link_id]
                if capacity != _INFINITY:
                    # What the packet plane leaves, at least half the wire.
                    half = capacity / 2.0
                    capacity -= packet_rate(link_id)
                    if half > capacity:
                        capacity = half
                effective[link_id] = capacity
        return effective

    def rtt_for(self, flow: FluidFlow) -> float:
        forward = self.collapsed.path(flow.source, flow.destination)
        backward = self.collapsed.path(flow.destination, flow.source)
        if forward is None or backward is None:
            return flow.rtt
        return forward.latency + backward.latency


class ShapedConstraints(ConstraintProvider):
    """Per-flow htb rate + netem loss, as seen inside a Kollaps container.

    An entry holds the sender's chain towards the destination itself —
    the TCAL reconfigures that object in place, and only a state install
    (an ``epoch`` move) can take it away — and every step reads the rate
    and loss it carries *now*, so changes made by the Emulation Manager
    between steps take effect immediately — exactly like the kernel
    picking up a netlink update.
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

    def resolve(self, entry: FlowEntry) -> None:
        flow = entry.flow
        tcal = self.tcal_lookup(flow.source)
        if tcal is None or not tcal.has_destination(flow.destination):
            entry.links = ()
            entry.loss = 1.0
            entry.shaping = None
            return
        entry.shaping = tcal.shaping_for(flow.destination)
        entry.links = (self._pseudo_link((flow.source, flow.destination)),)

    def capacities(self, active: List[FlowEntry]) -> Mapping[int, float]:
        capacities: Dict[int, float] = {}
        for entry in active:
            shaping = entry.shaping
            if shaping is not None:
                capacities[entry.links[0]] = shaping.htb.rate
                entry.loss = shaping.netem.loss
        return capacities

    def rtt_for(self, flow: FluidFlow) -> float:
        return self.rtt_lookup(flow.source, flow.destination)


class FluidEngine:
    """Fixed-step integrator over a set of :class:`FluidFlow` objects.

    A step costs what the flows it integrates cost: which flows those are
    is decided when one is added, removed, finishes or reaches its start
    time; how the network constrains each is resolved once per provider
    epoch (:class:`FlowEntry`).  Every step appends its time to one list
    and each integrated flow's delivered rate to that key's column — the
    history :meth:`mean_throughput` and :meth:`series` read.
    """

    def __init__(self, sim: Simulator, provider: ConstraintProvider, *,
                 dt: float = 0.010, rng: Optional[RngRegistry] = None,
                 buffer_bits: float = 1500 * 8.0 * 400) -> None:
        """``buffer_bits`` models the bottleneck queue a flow may occupy
        before overflow: a window-limited flow only receives a loss signal
        once its standing queue (``cwnd - achieved * RTT``) exceeds it, which
        is what lets a single TCP flow hold a link near 100 % utilisation."""
        self.sim = sim
        self.provider = provider
        self.dt = dt
        self.rng = (rng or RngRegistry(0)).stream("fluid-loss")
        self.buffer_bits = buffer_bits
        self.flows: Dict[Hashable, FluidFlow] = {}
        self._entries: Dict[Hashable, FlowEntry] = {}
        # The entries being integrated, in ``flows`` order, and when that
        # may next change: -inf after an add/remove/finish, else the
        # earliest pending start time.
        self._active: List[FlowEntry] = []
        self._recheck_at = _INFINITY
        self._epoch = provider.epoch
        # Step times, and per flow key the delivered rate of each step (a
        # column ends with the last step that integrated its key).
        self._times: List[float] = []
        self._rates: Dict[Hashable, List[float]] = {}
        # Allocated bits/s per link id last step — what the packet plane
        # reads to model bulk traffic occupying shared wires.
        self._link_rates: Dict[int, float] = {}
        # The last solve: (active, capacities, demands, allocation, the
        # allocated bits/s per link).
        self._solved: Optional[Tuple] = None
        self._process = Process(sim, dt, self._step, name="fluid-engine",
                                priority=10)

    # ----------------------------------------------------------- flow admin
    def add_flow(self, flow: FluidFlow) -> FluidFlow:
        if flow.key in self.flows:
            raise ValueError(f"duplicate flow key {flow.key!r}")
        flow.rtt = max(self.provider.rtt_for(flow), 1e-4)
        self.flows[flow.key] = flow
        # A key that was used before continues its column.
        self._entries[flow.key] = FlowEntry(
            flow, self._rates.setdefault(flow.key, []))
        self._recheck_at = -_INFINITY
        return flow

    def remove_flow(self, key: Hashable) -> None:
        if self.flows.pop(key, None) is not None:
            del self._entries[key]
            self._recheck_at = -_INFINITY

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
    def _refresh(self, now: float) -> None:
        """Re-derive the active entries; resolve those that need it."""
        provider = self.provider
        # Every resolved entry is active (or finished): a moved epoch
        # re-resolves exactly the ones the loop below reaches.
        moved = provider.epoch != self._epoch
        self._epoch = provider.epoch
        steps = len(self._times)
        active = []
        recheck_at = _INFINITY
        for entry in self._entries.values():
            flow = entry.flow
            if flow.finished:
                continue
            if flow.start_time > now:
                recheck_at = min(recheck_at, flow.start_time)
                continue
            if moved or entry.links is None:
                provider.resolve(entry)
                entry.rtt = flow.rtt = max(provider.rtt_for(flow), 1e-4)
            # Steps that went by without this key delivered nothing.
            entry.rates.extend([0.0] * (steps - len(entry.rates)))
            active.append(entry)
        self._active = active
        self._recheck_at = recheck_at

    def _step(self) -> None:
        """One tick of the grid: integrate the active flows over ``dt``."""
        # Not a ``with``: a step that raises ends the run, and the span
        # around the run is the one that reports it.
        trace = telemetry.span("fluid.step") if telemetry.enabled() else None
        now = self.sim.now
        provider = self.provider
        if now >= self._recheck_at or provider.epoch != self._epoch:
            self._refresh(now)
        self._times.append(now)
        active = self._active
        if active:
            capacities = provider.capacities(active)
            demands = []
            for entry in active:
                entry.demand = demand = entry.flow.desired_rate()
                demands.append(demand)
            # The solver reads the entries' constraint half, fixed while
            # ``active`` is the same list (``_refresh`` builds a new one),
            # their demands and the capacities: when none moved, neither
            # has the allocation, nor what it puts on each link.
            solved = self._solved
            if solved is not None and solved[0] is active and \
                    solved[2] == demands and (solved[1] is capacities
                                              or solved[1] == capacities):
                allocation, link_usage = solved[3], solved[4]
            else:
                allocation = rtt_aware_max_min(active, capacities)
                link_usage = {}
                for entry in active:
                    achieved = allocation[entry.key]
                    for link_id in entry.links:
                        link_usage[link_id] = (link_usage.get(link_id, 0.0)
                                               + achieved)
                self._solved = (active, capacities, demands, allocation,
                                link_usage)
            self._link_rates = link_usage

            dt = self.dt
            buffer_bits = self.buffer_bits
            drops = provider.saturation_drops
            for entry in active:
                flow = entry.flow
                achieved = allocation[entry.key]
                desired = entry.demand
                # Standing queue this flow builds at its bottleneck: the
                # part of the window the path cannot carry.  Loss only once
                # it overflows the bottleneck buffer, at a link the step
                # saturated.
                lost = (drops
                        and (desired - achieved) * entry.rtt > buffer_bits
                        and any(link_id in capacities and link_usage[link_id]
                                >= capacities[link_id] * (1.0 - 1e-6)
                                for link_id in entry.links))
                explicit_loss = entry.loss
                if not lost and explicit_loss > 0.0 and achieved > 0.0:
                    packets = max(1.0, achieved * dt / flow.mss_bits)
                    event_probability = 1.0 - (1.0 - explicit_loss) ** packets
                    lost = self.rng.random() < event_probability
                # Delivered goodput is reduced by explicit link loss.
                delivered = achieved * (1.0 - explicit_loss)
                flow.advance(now, dt, delivered, lost)
                entry.rates.append(delivered)
                if flow.finished:
                    self._recheck_at = -_INFINITY
                shaping = entry.shaping
                if shaping is not None:
                    # What the kernel's counters would show the Emulation
                    # Manager: the bits the chain carried and, when the
                    # sender offered well past them, the excess.
                    shaping.record(delivered * dt)
                    if achieved < _CONTENT_SHARE * desired:
                        self._report_pressure(shaping, flow, desired,
                                              achieved)
        elif self._link_rates:
            self._link_rates = {}
        if trace is not None:
            trace.set(flows=len(active), t=round(now, 6)).finish()
            telemetry.metrics.counter("fluid.steps").inc()

    def _report_pressure(self, shaping, flow: FluidFlow, offered: float,
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
        if offered == _INFINITY:
            # An unbounded sender: bound the report so the loss signal
            # stays proportional, not infinite.
            offered = achieved * 4.0
        if offered <= 0.0 or achieved >= _CONTENT_SHARE * offered:
            return
        if flow.protocol == "tcp":
            inflation = flow.cwnd - achieved * flow.rtt
            if inflation <= 16 * flow.mss_bits:
                return
        shaping.record_refused((offered - achieved) * self.dt)

    def stop(self) -> None:
        self._process.stop()

    # ------------------------------------------------------------ telemetry
    def mean_throughput(self, key: Hashable, start: float = 0.0,
                        end: float = float("inf")) -> float:
        """Average delivered rate of ``key`` over the steps in [start, end).

        The window is found by bisection; the rates in it are summed left
        to right, as written, so the mean is the one a scan of every step
        would compute, to the bit.
        """
        first = bisect_left(self._times, start)
        last = bisect_left(self._times, end)
        if last <= first:
            return 0.0
        return sum(self._rates.get(key, ())[first:last]) / (last - first)

    def series(self, key: Hashable) -> List[Tuple[float, float]]:
        """``(step time, delivered rate)`` of every step so far."""
        return list(zip_longest(self._times, self._rates.get(key, ()),
                                fillvalue=0.0))
