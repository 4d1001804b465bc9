"""The Emulation Manager: one per physical machine (§3).

Each manager runs the emulation loop for its local containers:

1. clear the state of all local active flows,
2. obtain bandwidth usage by querying each core's TCAL,
3. disseminate the local usage to the other managers (Aeron),
4. compute global bandwidth usage per path and constituent link,
5. enforce bandwidth restrictions (htb) and congestion loss (netem).

Managers never coordinate: each one merges its own samples with the latest
message from every peer and evaluates the RTT-aware min-max model locally.
Because the model and the collapsed topology are deterministic, all managers
converge to the same allocation — the decentralization argument of §3.

The loop is periodic, but an iteration costs O(active flows + what changed),
never O(installed chains) — §3: "only active flows require the exchange of
metadata".  A chain nobody throttled still carries the path properties the
state install gave it, so only chains this manager moved off them are ever
visited again (``_throttled``); a netlink write is issued only when the
chain does not already carry the wanted value; contention state advances
only on links that carry reported traffic or are currently flagged; the
sharing model is evaluated only while some local flow crosses a contended
link — §3's shares apply "at capacity", so no other flow reads them; the
fair-share floor — whose inputs move only on a state swap or a flow
arrival/departure — is solved once per such change (``_floor_memo``); and
the maximization pass is solved only while some flow demands less than its
floor share, the one case in which it can differ from the floor.  None of
this is observable: every chain carries, after every iteration, exactly
what rewriting all of them from two fresh solves would have left (see
``docs/performance.md``, "The emulation loop").

A converged emulation costs one poll and one publication per period.  An
iteration is a deterministic function of its inputs — this period's local
records, the peers' reports, the installed state — and of the manager's
state (contention, quiet-loop counts, throttled chains) and the chains'.
When a full iteration wrote nothing, moved no contention state, throttled
or restored nothing, it left all of that as it found it; it is recorded
as the *fixed point* ``(state epoch, view version, local records)``, and
the next iteration whose point compares equal would repeat the same no-op
to the bit, so it is skipped after the poll and the publication: merge,
restore, solve and enforce are not run, and ``enforcements`` still counts
its local flows.  Two reads are not of the point and are handled apart:
``_merge_global_view`` expires peer reports by ``sim.now``, so the skip
is taken only while no report is due to expire; ``_estimated_demand``
reads the live htb rate, which only this manager's own writes (no fixed
point is recorded after one) or a state install (which clears the fixed
point) can move.  A peer report bumps the view version only when its
flows differ from that peer's previous ones.

Nothing a converged period builds is new.  The poll hands out last
period's ``FlowRecord`` for every flow whose usage and links compare equal,
and ``_disseminate`` last period's ``MetadataMessage`` while its flows do;
the metadata channel hands every receiver of an unchanged publication the
same decoded flows (one delivery event reaches all peers), and a receiver
keeps the newest of two equal reports, so from the second period on an
unchanged report, the fixed-point compare and the wire-image compare each
cost identity tests.  All three are frozen values, compared by identity
only to short-circuit an ``==`` that would have returned ``True``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Set, Tuple

from repro import telemetry
from repro.core.collapse import CollapsedTopology
from repro.core.congestion import combine_loss, congestion_loss
from repro.core.emucore import EmulationCore
from repro.core.sharing import FlowDemand, rtt_aware_max_min
from repro.metadata.channels import MediaDriver
from repro.metadata.encoding import FlowRecord, MetadataMessage
from repro.sim import Simulator

__all__ = ["EmulationManager"]

# Remote flow reports older than this many loop periods are discarded
# (their sender stopped reporting, so the flows are gone).  A peer
# publishes every period, so 3.5 lets three of its publications go missing
# or arrive late before its flows leave the view; the half period keeps
# the deadline off the instants at which the loops tick.
_REMOTE_EXPIRY_PERIODS = 3.5

# A non-saturating flow may grow this much above its measured usage before
# the next loop iteration re-evaluates it (paper: the maximization step
# redistributes capacity *unused* by under-demanding flows).
_GROWTH_HEADROOM = 1.5

# A demand cap can take part in the maximization pass only if progressive
# filling can reach it: at or below the flow's floor share, give or take
# the solver's tolerances (1e-9 relative slack on a cap, 1e-9 b/s on a
# freeze).  Three orders of magnitude of margin on both; see
# ``_compute_shares``.
_REACHABLE = 1.0 + 1e-6
_REACHABLE_BPS = 1e-6


@dataclass
class _RemoteReport:
    received_at: float
    flows: Tuple[FlowRecord, ...]


@dataclass
class _FloorMemo:
    """The fair-share floor of one (topology state, flow set).

    ``signature`` is what the floor is a function of: the state epoch
    (collapsed paths and capacities, hence every rtt and path bandwidth)
    and the flows with their links, in solver order.  ``statics`` holds,
    per flow that has a path, the ``(key, rtt, links, path_bandwidth)``
    both solver passes start from.
    """

    signature: Tuple
    statics: List[Tuple[Hashable, float, Tuple[int, ...], float]]
    floor: Dict[Hashable, float]


class EmulationManager:
    """Decentralized emulation agent for one machine's containers."""

    def __init__(self, sim: Simulator, machine: str, driver: MediaDriver,
                 manager_index: int, container_indices: Dict[str, int], *,
                 period: float = 0.050,
                 congestion_sensitivity: float = 1.0) -> None:
        self.sim = sim
        self.machine = machine
        self.driver = driver
        self.manager_index = manager_index
        self.period = period
        self.congestion_sensitivity = congestion_sensitivity
        # Last period's records and publication, handed out again while
        # they compare equal to this period's.
        self._records: Dict[Tuple[str, str], FlowRecord] = {}
        self._message: Optional[MetadataMessage] = None
        self.container_indices = container_indices
        self.index_to_container = {index: name for name, index
                                   in container_indices.items()}
        self.cores: Dict[str, EmulationCore] = {}
        self.collapsed: Optional[CollapsedTopology] = None
        self.capacities: Dict[int, float] = {}
        self._remote: Dict[int, _RemoteReport] = {}
        # Links on which the sharing model is in force, and per link the
        # consecutive quiet loops counted toward its release.
        self._link_contended: Set[int] = set()
        self._quiet_loops: Dict[int, int] = {}
        # Bumped by every install_state: whatever was derived from the
        # previous collapsed table or capacities is stale.
        self._state_epoch = 0
        self._floor_memo: Optional[_FloorMemo] = None
        # Bumped whenever the peers' reports, as merged, may differ.
        self._view_version = 0
        # The last iteration that changed nothing, as (state epoch, view
        # version, local records); None when there is none to repeat.
        self._fixed_point: Optional[Tuple] = None
        # (container, destination) chains this manager has moved off their
        # collapsed-path properties and not yet restored (insertion-ordered
        # so restores happen in a reproducible order).
        self._throttled: Dict[Tuple[str, str], None] = {}
        self.loops = 0
        self.enforcements = 0
        driver.subscribe(self._on_message)

    # -------------------------------------------------------------- wiring
    def add_core(self, core: EmulationCore) -> None:
        self.cores[core.container] = core

    def install_state(self, collapsed: CollapsedTopology,
                      capacities: Dict[int, float]) -> None:
        """Swap in a new pre-computed topology state (dynamic event).

        ``capacities`` is the state's own map, shared by every manager and
        only ever read here.
        """
        self.collapsed = collapsed
        self.capacities = capacities
        self._state_epoch += 1
        # The install rewrote the chains the fixed point was read against.
        self._fixed_point = None

    def _on_message(self, message: MetadataMessage) -> None:
        if message.sender == self.manager_index:
            return
        report = self._remote.get(message.sender)
        if report is not None and (report.flows is message.flows
                                   or report.flows == message.flows):
            report.received_at = self.sim.now
            # Keep the newest equal flows: the sender's next publication,
            # if unchanged, hands over this very tuple again.
            report.flows = message.flows
            return
        self._remote[message.sender] = _RemoteReport(self.sim.now,
                                                     message.flows)
        self._view_version += 1

    # ----------------------------------------------------------------- loop
    def run_loop_iteration(self) -> None:
        """One pass of the five-step emulation loop — after the poll and the
        publication, skipped when it would repeat the fixed point."""
        if self.collapsed is None:
            return
        self.loops += 1
        counting = telemetry.enabled()
        if counting:
            telemetry.metrics.counter("manager.loop_iterations").inc()
        local_flows = self._poll_local_usage()
        self._disseminate(local_flows)
        point = (self._state_epoch, self._view_version,
                 tuple(local_flows.items()))
        if point == self._fixed_point and not self._report_expiring():
            self.enforcements += len(local_flows)
            if counting:
                telemetry.metrics.counter("manager.iterations_skipped").inc()
            return
        global_flows = self._merge_global_view(local_flows)
        moved = self._restore_idle(local_flows)
        if global_flows:
            moved = self._enforce(local_flows, global_flows) or moved
        self._fixed_point = None if moved else point

    def _restore_idle(self, local: Dict[Tuple[str, str], FlowRecord]) -> bool:
        """Reset throttled chains whose flow went quiet to their path
        properties.

        The sharing model covers active flows only (§3: "only active flows
        require the exchange of metadata"), so a destination that went
        quiet gets its collapsed-path bandwidth and loss back — otherwise a
        previously-throttled chain would still strangle the next burst.
        Chains this manager never throttled, or has restored since, already
        carry those properties (the state install wrote them) and are not
        visited.  Returns whether any chain was.
        """
        quiet = [key for key in self._throttled if key not in local]
        for key in quiet:
            del self._throttled[key]
            path = self.collapsed.path(*key)
            if path is None:
                # Gone with a state swap, and its chain with it.
                continue
            self.cores[key[0]].restore(key[1],
                                       bandwidth=path.properties.bandwidth,
                                       loss=path.properties.loss)
        if quiet and telemetry.enabled():
            telemetry.metrics.counter("manager.chains_restored").inc(
                len(quiet))
        return bool(quiet)

    # Step 1 + 2.
    def _poll_local_usage(self) -> Dict[Tuple[str, str], FlowRecord]:
        """This period's report: one record per active local flow — last
        period's record object wherever it compares equal."""
        previous = self._records
        records: Dict[Tuple[str, str], FlowRecord] = {}
        for container, core in self.cores.items():
            usage = core.sample_usage(self.period, now=self.sim.now)
            for destination, sample in usage.items():
                path = self.collapsed.path(container, destination)
                if path is None:
                    continue
                key = (container, destination)
                # Offered load (carried + back-pressured): peers need the
                # requested bandwidth to evaluate §3's congestion model.
                # Same wire format — only the value's semantics differ.
                used = sample.requested
                record = previous.get(key)
                if record is None or record.used_bandwidth != used or \
                        record.link_ids != path.link_ids:
                    record = FlowRecord(
                        source_index=self.container_indices[container],
                        destination_index=self.container_indices[destination],
                        used_bandwidth=used, link_ids=path.link_ids)
                records[key] = record
        self._records = records
        return records

    # Step 3.
    def _disseminate(self, local: Dict[Tuple[str, str], FlowRecord]) -> None:
        flows = tuple(local.values())
        # Peers always receive the report (even when empty: it clears their
        # view of our finished flows).
        message = self._message
        if message is None or message.flows != flows:
            message = self._message = MetadataMessage(
                sender=self.manager_index, flows=flows)
        self.driver.publish_remote(message)

    # Step 4 (first half): assemble the global flow view.
    def _merge_global_view(
            self, local: Dict[Tuple[str, str], FlowRecord]
    ) -> Dict[Tuple[str, str], FlowRecord]:
        flows: Dict[Tuple[str, str], FlowRecord] = {}
        expiry = self._expiry()
        for sender, report in list(self._remote.items()):
            if self.sim.now - report.received_at > expiry:
                del self._remote[sender]
                self._view_version += 1
                continue
            for record in report.flows:
                source = self.index_to_container.get(record.source_index)
                destination = self.index_to_container.get(
                    record.destination_index)
                if source is None or destination is None:
                    continue
                flows[(source, destination)] = record
        flows.update(local)
        return flows

    def _expiry(self) -> float:
        """How long a peer's report stands without being renewed."""
        return self.period * _REMOTE_EXPIRY_PERIODS

    def _report_expiring(self) -> bool:
        """Whether ``_merge_global_view`` would drop a report now."""
        now = self.sim.now
        expiry = self._expiry()
        return any(now - report.received_at > expiry
                   for report in self._remote.values())

    # Step 4 (second half): evaluate the sharing model.
    def _compute_shares(self, flows: Dict[Tuple[str, str], FlowRecord]):
        """Two solver passes implement the model of §3 exactly:

        * the *fair-share floor* — every active flow's RTT-aware min-max
          share assuming it wants everything.  A flow is never enforced
          below this, no matter how little it used last period; a short
          or bursty flow must not be ratcheted down by its own duty cycle.
        * the *maximization step* — re-solving with usage-derived demands
          redistributes capacity under-demanding flows leave unused,
          "proportionally to their original shares".

        The enforced share is the maximum of the two: the floor guarantees
        fairness, the redistribution pass grants more when contention is
        only nominal.

        The floor depends on which flows are active over which links and
        on the installed state — never on usage — so it is solved when one
        of those moves and remembered in between (:class:`_FloorMemo`).

        The maximization pass is the floor's problem with each flow capped
        at its demand as well.  A cap no flow reaches changes nothing —
        progressive filling takes the same steps and freezes the same flows
        at the same links, to the last bit — so the pass can only differ
        from the floor when some flow demands less than its floor share,
        and is solved only then (always, in particular, while a flow ramps
        up; never for flows sitting at their shares).
        """
        signature = (self._state_epoch,
                     tuple([(key, record.link_ids)
                            for key, record in flows.items()]))
        memo = self._floor_memo
        if memo is None or memo.signature != signature:
            memo = self._floor_memo = self._solve_floor(signature)
        elif telemetry.enabled():
            telemetry.metrics.counter("manager.floor_memo_hits").inc()
        infinity = float("inf")
        floor = memo.floor
        demands: List[float] = []
        under_demand = False
        for key, _rtt, _links, path_bandwidth in memo.statics:
            demand = self._estimated_demand(key, flows[key])
            demands.append(demand)
            # The exception is a flow nothing else bounds: the floor
            # leaves it at zero, only its demand gives it a share.
            if demand != infinity and (
                    demand < floor[key] * _REACHABLE + _REACHABLE_BPS
                    or path_bandwidth == infinity):
                under_demand = True
        if not under_demand:
            return floor
        boosted = rtt_aware_max_min(
            [FlowDemand(key, rtt, links, demand, path_bandwidth)
             for (key, rtt, links, path_bandwidth), demand
             in zip(memo.statics, demands)],
            self.capacities)
        return {key: max(share, boosted.get(key, 0.0))
                for key, share in floor.items()}

    def _solve_floor(self, signature: Tuple) -> _FloorMemo:
        """Solve the all-``inf`` pass for the flow set in ``signature``."""
        statics = []
        for key, link_ids in signature[1]:
            source, destination = key
            forward = self.collapsed.path(source, destination)
            if forward is None:
                continue
            backward = self.collapsed.path(destination, source)
            rtt = forward.latency + (backward.latency if backward
                                     else forward.latency)
            statics.append((key, rtt, link_ids,
                            forward.properties.bandwidth))
        floor = rtt_aware_max_min(
            [FlowDemand(key, rtt, links, path_bandwidth=path_bandwidth)
             for key, rtt, links, path_bandwidth in statics],
            self.capacities)
        return _FloorMemo(signature, statics, floor)

    def _estimated_demand(self, key: Tuple[str, str],
                          record: FlowRecord) -> float:
        """How much this flow *wants*, inferred from what it used.

        A local flow that filled its htb allocation is unconstrained (the
        shaping, not the application, was the limit), so the model should
        grant it its full fair share.  For every other flow — remote flows,
        whose enforcement state we don't see, and local under-demanding
        ones — the demand is the measured usage plus growth headroom, so
        unused capacity is redistributed (the maximization step) while a
        throttled flow can still climb back to its fair share over a few
        loop iterations.
        """
        core = self.cores.get(key[0])
        if core is not None:
            try:
                htb_rate = core.tcal.shaping_for(key[1]).htb.rate
            except KeyError:
                htb_rate = None
            if htb_rate is not None and \
                    record.used_bandwidth >= 0.9 * htb_rate:
                return float("inf")
        return record.used_bandwidth * _GROWTH_HEADROOM

    # Contention hysteresis.  §3: the model "gives the percentage of the
    # maximum bandwidth any flow is allowed to use *at capacity*" — an
    # uncontended path keeps its collapsed maximum.  A link *enters*
    # contention above ENTER x capacity and only *leaves* after usage has
    # stayed below EXIT x capacity for QUIET consecutive loops: enforced
    # flows sit exactly at the sum of their shares, so a single-threshold
    # gate would flap on every sampling wobble, momentarily unthrottle
    # everyone, and then punish the resulting burst with phantom loss.
    _CONTENTION_ENTER = 0.90
    _CONTENTION_EXIT = 0.75
    _CONTENTION_QUIET_LOOPS = 5

    # Step 5.
    def _enforce(self, local: Dict[Tuple[str, str], FlowRecord],
                 flows: Dict[Tuple[str, str], FlowRecord]) -> bool:
        """Returns whether anything moved: a chain written, a contention
        state advanced, a chain throttled or released.

        Only a local flow crossing a contended link reads the sharing
        model, so the model is evaluated only when there is one — and
        before the first chain write, so ``_estimated_demand`` reads the
        htb rates the iteration started with.
        """
        # Cumulative measured usage per link across the global view: which
        # links are at capacity (throttle their flows) and which are
        # oversubscribed (additionally inject loss).  A flow whose path
        # went with a state swap requests nothing.
        path_of = self.collapsed.path
        requested: Dict[int, float] = {}
        for key, record in flows.items():
            usage = 0.0 if path_of(*key) is None else record.used_bandwidth
            for link_id in record.link_ids:
                requested[link_id] = requested.get(link_id, 0.0) + usage
        moved = self._update_contention(requested)
        contended = self._link_contended
        throttled = self._throttled
        crossing = {key for key, record in local.items()
                    if not contended.isdisjoint(record.link_ids)}
        allocation = self._compute_shares(flows) if crossing else None

        for key, record in local.items():
            source, destination = key
            path = path_of(source, destination)
            core = self.cores[source]
            if key not in crossing:
                # No link on the path is near capacity: the flow keeps the
                # collapsed path maximum (the model only divides bandwidth
                # between flows *competing* for a saturated link).
                if key in throttled:
                    del throttled[key]
                    moved = True
                moved = core.restore(destination,
                                     bandwidth=path.properties.bandwidth,
                                     loss=path.properties.loss) or moved
                self.enforcements += 1
                continue
            share = allocation[key]
            loss_components = [path.properties.loss]
            # A 2 % tolerance absorbs measurement quantization: usage is
            # sampled over one loop period, and a flow exactly at capacity
            # must not read as oversubscribed.
            oversubscribed = any(
                requested.get(link_id, 0.0) > self.capacities[link_id] * 1.02
                for link_id in record.link_ids if link_id in self.capacities)
            if oversubscribed:
                # Each flow loses the fraction of its *own* traffic that
                # exceeds its share — "per flow, proportionally to the
                # oversubscribed capacity" (§3).  Flows within their share
                # lose nothing, so a ramping newcomer is never penalized.
                loss_components.append(congestion_loss(
                    record.used_bandwidth, share,
                    sensitivity=self.congestion_sensitivity))
            if key not in throttled:
                throttled[key] = None
                moved = True
            moved = core.enforce(destination, bandwidth=share,
                                 loss=combine_loss(*loss_components)) or moved
            self.enforcements += 1
        return moved

    def _update_contention(self, requested: Dict[int, float]) -> bool:
        """Advance per-link contention state; returns whether a link
        entered or left contention or its quiet-loop count moved.

        Only links with reported traffic or already contended can change
        state: an idle uncontended link neither enters nor counts quiet
        loops, so the rest of the topology is not walked.
        """
        contended = self._link_contended
        quiet_loops = self._quiet_loops
        moved = False
        for link_id in [*requested, *contended.difference(requested)]:
            capacity = self.capacities.get(link_id)
            if capacity is None or capacity == float("inf"):
                continue
            used = requested.get(link_id, 0.0)
            was = quiet_loops.get(link_id, 0)
            if used > capacity * self._CONTENTION_ENTER:
                quiet = 0
                if link_id not in contended:
                    contended.add(link_id)
                    moved = True
            elif link_id not in contended:
                continue
            elif used < capacity * self._CONTENTION_EXIT:
                quiet = was + 1
                if quiet >= self._CONTENTION_QUIET_LOOPS:
                    contended.discard(link_id)
                    moved = True
                    quiet = 0
            else:
                quiet = 0
            quiet_loops[link_id] = quiet
            moved = moved or quiet != was
        return moved
