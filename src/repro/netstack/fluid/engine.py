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

from array import array
from typing import Callable, Dict, Hashable, List, Mapping, Optional, Tuple

from repro import telemetry
from repro.core.collapse import collapse
from repro.sim import RngRegistry, Series, Simulator
from repro.topology.model import Topology

__all__ = ["FluidEngine", "FlowEntry", "ConstraintProvider",
           "GroundTruthConstraints", "ShapedConstraints"]

_INFINITY = float("inf")
_ZERO = array("d", (0.0,))
# A sender holding at least this share of what it offers is at the TSQ
# equilibrium behind its shaper and exerts no back-pressure worth reporting.
_CONTENT_SHARE = 0.70
# The bottleneck queue a flow may occupy before overflow: a window-limited
# flow only receives a loss signal once its standing queue (``cwnd -
# achieved * RTT``) exceeds it, which is what lets a single TCP flow hold a
# link near 100 % utilisation.
_BUFFER_BITS = 1500 * 8.0 * 400


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
    writes.  ``rates`` is the flow key's ``array('d')`` column of
    delivered rates, one value per step from the engine's first.
    """

    __slots__ = ("flow", "key", "links", "rtt", "loss", "shaping", "demand",
                 "rates")

    path_bandwidth = _INFINITY

    def __init__(self, flow: "FluidFlow", rates: "array") -> None:
        self.flow = flow
        self.key = flow.key
        self.links: Optional[Tuple[int, ...]] = None    # None: unresolved
        self.rtt = flow.rtt
        self.loss = 0.0
        self.shaping = None
        self.demand = 0.0
        self.rates = rates

    @property
    def weight(self) -> float:
        """RTT-fairness weight, as ``FlowDemand.weight`` reads it."""
        return 1.0 / max(self.rtt, 1e-6)


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

    def unchanged(self, active: List[FlowEntry],
                  capacities: Mapping[int, float]) -> bool:
        """Whether :meth:`capacities` would answer ``capacities`` again for
        ``active`` — entries whose ``loss`` is 0.0 — and leave every loss
        at 0.0.  The engine asks before it repeats a step; ``False`` is
        always a safe answer."""
        return False

    def rtt_for(self, flow: "FluidFlow") -> float:
        """Base round-trip time the flow currently experiences."""
        raise NotImplementedError


class GroundTruthConstraints(ConstraintProvider):
    """Physical links along each flow's route (bare-metal behaviour).

    ``packet_rates`` optionally maps a link id to the packet plane's
    recent bits/s on it, holding non-zero rates only (the live table of
    :attr:`~repro.netstack.fullnet.FullStateNetwork.packet_rates`); bulk
    flows then see that share of the wire as occupied.
    The two planes arbitrate max-min style: the fluid aggregate never gets
    pushed below half the wire while the packet plane is active (and the
    packet plane is throttled symmetrically, see
    :meth:`~repro.netstack.fullnet.FullStateNetwork.set_background_load`),
    which is the equilibrium of TCP aggregates sharing a link.
    """

    def __init__(self, topology: Topology, *,
                 packet_rates: Optional[Mapping[int, float]] = None
                 ) -> None:
        self.packet_rates = packet_rates
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
        rates = self.packet_rates
        static = self._capacities
        if not rates:
            # No wire carries packets: every capacity is the static one.
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
                    capacity -= rates.get(link_id, 0.0)
                    if half > capacity:
                        capacity = half
                effective[link_id] = capacity
        return effective

    def unchanged(self, active: List[FlowEntry],
                  capacities: Mapping[int, float]) -> bool:
        # Loss is fixed per epoch; capacities move only with packet rates.
        return capacities is self._capacities and not self.packet_rates

    def rtt_for(self, flow: "FluidFlow") -> float:
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

    def unchanged(self, active: List[FlowEntry],
                  capacities: Mapping[int, float]) -> bool:
        # Asked about entries with loss 0.0 only: each has its chain.
        for entry in active:
            shaping = entry.shaping
            if shaping.netem.loss or \
                    shaping.htb.rate != capacities[entry.links[0]]:
                return False
        return True

    def rtt_for(self, flow: "FluidFlow") -> float:
        return self.rtt_lookup(flow.source, flow.destination)


class FluidEngine:
    """Fixed-step integrator over a set of :class:`FluidFlow` objects.

    A step costs what the flows it integrates cost: which flows those are
    is decided when one is added, removed, finishes or reaches its start
    time; how the network constrains each is resolved once per provider
    epoch (:class:`FlowEntry`).  Every step appends its time to one
    ``array('d')`` column and each integrated flow's delivered rate to
    that key's — the history :meth:`mean_throughput` and :meth:`series`
    read, eight bytes a sample.

    A step that reused the last solve, over flows with no explicit loss
    whose :meth:`~FluidFlow.advance` each moved nothing but its transfer
    counters, leaves a *repeat plan*: per entry, the rate it delivered,
    the bits it carried and the bits it refused.
    Its inputs are then all unchanged for the next step — the same
    entries, windows and demands — except the constraints, so while the
    provider reports those :meth:`~ConstraintProvider.unchanged` each
    step replays the plan instead of integrating: the same samples,
    counters and finishes, none of the work.

    A repeat needs no event of its own while nothing else can run before
    it.  The step event that leaves a plan replays the steps after it in
    the same event, ``t += dt`` as each event would have scheduled the
    next, and queues its next event at the first step it did not take: one
    not before the earliest queued event
    (:attr:`~repro.sim.Simulator.head_time`), past the run's
    :attr:`~repro.sim.Simulator.horizon`, or at which the active flows may
    change (a start time, a flow that finished).  As no event runs between
    those steps, the provider is asked once for them all, and each writes
    what its own event would have, in the same order.  A step with no flow
    integrated, or none to replay, keeps its own event.
    """

    def __init__(self, sim: Simulator, provider: ConstraintProvider, *,
                 dt: float = 0.010, rng: Optional[RngRegistry] = None) -> None:
        self.sim = sim
        self.provider = provider
        self.dt = dt
        self._streams = rng or RngRegistry(0)
        # The "fluid-loss" stream, made by the first step that draws.
        self._loss_rng = None
        self.flows: Dict[Hashable, "FluidFlow"] = {}
        self._entries: Dict[Hashable, FlowEntry] = {}
        # The entries being integrated, in ``flows`` order, and when that
        # may next change: -inf after an add/remove/finish, else the
        # earliest pending start time.
        self._active: List[FlowEntry] = []
        self._recheck_at = _INFINITY
        self._epoch = provider.epoch
        # Step times, and per flow key the delivered rate of each step (a
        # column ends with the last step that integrated its key).
        self._times = array("d")
        self._rates: Dict[Hashable, array] = {}
        # Whether ``series`` handed these columns out: the next step then
        # writes to copies, so a series never changes once taken.
        self._lent = False
        # Allocated bits/s per link id last step — what the packet plane
        # reads to model bulk traffic occupying shared wires.
        self._link_rates: Dict[int, float] = {}
        # The last solve: (active, capacities, demands, allocation, the
        # allocated bits/s per link).
        self._solved: Optional[Tuple] = None
        # The repeat plan, when the last step left one: (flow, entry,
        # shaping, delivered, carried bits, refused bits) per active entry.
        self._plan: Optional[List[Tuple]] = None
        # The queued step event; None once stopped.
        self._event: Optional[list] = sim.after(
            0.0, self._dispatch, priority=10, label="fluid-engine")

    # ----------------------------------------------------------- flow admin
    def add_flow(self, flow: "FluidFlow") -> "FluidFlow":
        if flow.key in self.flows:
            raise ValueError(f"duplicate flow key {flow.key!r}")
        flow.rtt = max(self.provider.rtt_for(flow), 1e-4)
        self.flows[flow.key] = flow
        # A key that was used before continues its column.
        self._entries[flow.key] = FlowEntry(
            flow, self._rates.setdefault(flow.key, array("d")))
        self._recheck_at = -_INFINITY
        return flow

    def remove_flow(self, key: Hashable) -> None:
        if self.flows.pop(key, None) is not None:
            del self._entries[key]
            self._recheck_at = -_INFINITY

    def active_flows(self) -> List["FluidFlow"]:
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
            entry.rates.extend(_ZERO * (steps - len(entry.rates)))
            active.append(entry)
        self._active = active
        self._recheck_at = recheck_at
        self._plan = None

    def _dispatch(self) -> None:
        """The step event: the step at ``now`` then, while it leaves a
        repeat plan, the steps after it that no event can come between;
        the next event is the first step it did not take."""
        sim = self.sim
        now = sim.now
        repeated = self._step(now)
        now += self.dt
        if self._plan is not None:
            now = self._replay_ahead(now, repeated)
        self._event = sim.at(now, self._dispatch, priority=10,
                             label="fluid-engine")

    def _replay_ahead(self, now: float, checked: bool) -> float:
        """Replay the plan as the steps at ``now``, ``now + dt``, ... and
        return the first step time it did not replay: one not before the
        earliest queued event, past the run's horizon or at which the
        active flows may change (a start time, a flow that finished).

        No event runs between the steps replayed, so the provider, asked
        once (``checked``: the last step asked it), answers for them all,
        and each writes what its own event would have."""
        if not checked and not self.provider.unchanged(self._active,
                                                       self._solved[1]):
            return now
        end = self.sim.head_time
        horizon = self.sim.horizon
        dt = self.dt
        times = self._times
        tracing = telemetry.enabled()
        while now < end and now <= horizon and now < self._recheck_at:
            if tracing:
                trace = telemetry.span("fluid.step")
            times.append(now)
            self._repeat()
            if tracing:
                trace.set(flows=len(self._active), t=round(now, 6)).finish()
                for name in ("fluid.steps", "fluid.steps_repeated",
                             "fluid.steps_inline"):
                    telemetry.metrics.counter(name).inc()
            now += dt
        return now

    def _repeat(self) -> None:
        """Replay the repeat plan's samples, counters and finishes as this
        step's, once the step's time is appended."""
        for flow, entry, shaping, delivered, carried, refused in self._plan:
            entry.rates.append(delivered)
            if shaping is not None:
                shaping.bits_since_poll += carried
                if refused:
                    shaping.refused_since_poll += refused
            # What ``advance`` does when it moves only its counters.
            flow.bits_transferred += carried
            size = flow.size_bits
            if size is not None and flow.bits_transferred >= size:
                flow.finished = True
                self._recheck_at = -_INFINITY

    def _step(self, now: float) -> bool:
        """One tick of the grid: integrate the active flows over ``dt``,
        or replay the repeat plan the last step left; whether it
        replayed."""
        # Not a ``with``: a step that raises ends the run, and the span
        # around the run is the one that reports it.
        trace = telemetry.span("fluid.step") if telemetry.enabled() else None
        provider = self.provider
        if self._lent:
            self._unlend()
        if now >= self._recheck_at or provider.epoch != self._epoch:
            self._refresh(now)
        self._times.append(now)
        active = self._active
        repeated = self._plan is not None and \
            provider.unchanged(active, self._solved[1])
        if repeated:
            self._repeat()
        elif active:
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
            reused = solved is not None and solved[0] is active and \
                solved[2] == demands and (solved[1] is capacities
                                          or solved[1] == capacities)
            if reused:
                allocation, link_usage = solved[3], solved[4]
            else:
                from repro.core.sharing import rtt_aware_max_min
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
            buffer_bits = _BUFFER_BITS
            drops = provider.saturation_drops
            plan = [] if reused else None
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
                    if self._loss_rng is None:
                        self._loss_rng = self._streams.stream("fluid-loss")
                    lost = self._loss_rng.random() < event_probability
                # Delivered goodput is reduced by explicit link loss.
                delivered = achieved * (1.0 - explicit_loss)
                counters_only = flow.advance(now, dt, delivered, lost)
                entry.rates.append(delivered)
                if flow.finished:
                    self._recheck_at = -_INFINITY
                carried = delivered * dt
                refused = 0.0
                shaping = entry.shaping
                if shaping is not None:
                    # What the kernel's counters would show the Emulation
                    # Manager: the bits the chain carried and, when the
                    # sender offered well past them, the excess.
                    shaping.record(carried)
                    if achieved < _CONTENT_SHARE * desired:
                        refused = self._report_pressure(shaping, flow,
                                                        desired, achieved)
                if plan is not None:
                    if counters_only and not explicit_loss:
                        plan.append((flow, entry, shaping, delivered,
                                     carried, refused))
                    else:
                        plan = None
            self._plan = plan
        elif self._link_rates:
            self._link_rates = {}
        if trace is not None:
            trace.set(flows=len(active), t=round(now, 6)).finish()
            telemetry.metrics.counter("fluid.steps").inc()
            if repeated:
                telemetry.metrics.counter("fluid.steps_repeated").inc()
        return repeated

    def _report_pressure(self, shaping, flow: "FluidFlow", offered: float,
                         achieved: float) -> float:
        """Report gross offered-over-achieved excess as back-pressure; the
        bits reported, 0.0 for none.

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
            return 0.0
        if flow.protocol == "tcp":
            inflation = flow.cwnd - achieved * flow.rtt
            if inflation <= 16 * flow.mss_bits:
                return 0.0
        refused = (offered - achieved) * self.dt
        shaping.record_refused(refused)
        return refused

    def stop(self) -> None:
        if self._event is not None:
            self.sim.cancel(self._event)
            self._event = None

    def next_step(self) -> float:
        """When the integrator's next step event fires; infinity once
        stopped."""
        event = self._event
        return _INFINITY if event is None else event[0]

    # ------------------------------------------------------------ telemetry
    def mean_throughput(self, key: Hashable, start: float = 0.0,
                        end: float = float("inf")) -> float:
        """Average delivered rate of ``key`` over the steps in [start, end)
        (:meth:`Series.mean <repro.sim.series.Series.mean>`)."""
        return self.series(key).mean(start, end)

    def series(self, key: Hashable) -> Series:
        """``(step time, delivered rate)`` of every step so far, the rates
        padded with 0.0 past the key's last step.

        The series shares the engine's columns (a finished run keeps one
        copy of its samples, not two), except a rate column that needs
        padding; a later step copies them before it writes, so the series
        never changes."""
        times = self._times
        rates = self._rates.get(key)
        if rates is None:
            rates = array("d")
        if len(rates) < len(times):
            rates = rates + _ZERO * (len(times) - len(rates))
        self._lent = True
        return Series.of(times, rates)

    def _unlend(self) -> None:
        """Give the engine its own columns again (see :meth:`series`)."""
        self._lent = False
        self._times = self._times[:]
        rates = self._rates
        for key, column in rates.items():
            rates[key] = column[:]
        for key, entry in self._entries.items():
            entry.rates = rates[key]
