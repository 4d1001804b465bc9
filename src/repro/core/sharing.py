"""RTT-aware min-max bandwidth sharing (§3).

The paper models how TCP Reno divides a bottleneck among competing flows:
each long-lived flow's share of a link is inversely proportional to its
round-trip time [Kelly 1997; Massoulié & Roberts 2002; Padhye et al. 2000]::

    Share(f) = ( RTT(f) * Σ_i 1/RTT(f_i) )^-1        (fraction of capacity)

Because a flow can be capped below its share by another link on its path (or
by its application demand), the model adds a *maximization step*: surplus
capacity left by constrained flows is redistributed to the remaining flows
proportionally to their original shares, keeping links work-conserving.

Two solvers are provided:

* :func:`rtt_aware_max_min` — exact RTT-weighted max-min via progressive
  filling.  Running the maximization step to its fixed point is equivalent
  to progressive filling with weights ``1/RTT``; this is the solver the
  emulation engine uses.
* :func:`paper_two_step_shares` — the literal two-pass computation in the
  paper's text (initial share, then one proportional redistribution).  Kept
  for the ablation benchmark; it deviates from the fixed point only when a
  single redistribution pass cannot absorb all surplus.

Shares are enforced *per destination, not per flow* (§3): callers aggregate
all traffic between one container pair into a single :class:`FlowDemand`.

One filler
----------

:func:`rtt_aware_max_min` has one implementation of progressive filling
(:func:`_progressive_fill`): plain python over flow positions, every float
operation in a fixed order, so the same flows and capacities give the same
bits on every interpreter and machine — what lets decentralized managers
agree without coordination, and what ``tests/golden/
fair_share_allocations.json`` and the ``BENCH_engine.json`` checksums pin.
A second, vectorized filler was measured against the solve traffic and
removed; ``docs/performance.md`` ("One fair-share filler") records the
numbers and what would justify another.

Ahead of it sits a closed form (:func:`_disjoint_max_min`) for problems
in which no two flow occurrences share a constrained link: nothing is
contended there, each flow simply gets its tightest bound, and no round
is run — the fluid integrator's per-destination pseudo-links and every
single-flow solve.  It agrees with the filler to 1e-9.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

from repro import telemetry

__all__ = ["FlowDemand", "LinkUsage", "rtt_aware_max_min",
           "paper_two_step_shares"]

_EPSILON = 1e-9


@dataclass(frozen=True)
class FlowDemand:
    """One aggregated flow for the sharing model.

    ``key`` identifies the (source, destination) container pair; ``rtt`` is
    the collapsed round-trip latency in **seconds**; ``links`` are the
    identifiers of the physical links the collapsed path traverses;
    ``demand`` is the rate the application currently wants in **bits/s**
    (``inf`` for a saturating bulk flow); ``path_bandwidth`` is the
    collapsed path's narrowest-link capacity in **bits/s**.
    """

    key: Hashable
    rtt: float
    links: Tuple[int, ...]
    demand: float = float("inf")
    path_bandwidth: float = float("inf")

    @property
    def weight(self) -> float:
        """RTT-fairness weight; latency-free paths share equally."""
        return 1.0 / max(self.rtt, 1e-6)


@dataclass
class LinkUsage:
    """Mutable per-link accounting used while solving."""

    capacity: float
    flows: List[FlowDemand] = field(default_factory=list)


def _index_links(flows: Sequence[FlowDemand],
                 capacities: Mapping[int, float]) -> Dict[int, LinkUsage]:
    links: Dict[int, LinkUsage] = {}
    for flow in flows:
        for link_id in flow.links:
            if link_id not in capacities:
                continue
            usage = links.get(link_id)
            if usage is None:
                usage = links[link_id] = LinkUsage(capacities[link_id])
            usage.flows.append(flow)
    return links


def _progressive_fill(flows: Sequence[FlowDemand],
                      capacities: Mapping[int, float]
                      ) -> Tuple[Dict[Hashable, float], int]:
    """Progressive filling; returns (allocation, waterfilling rounds).

    Flows and links are handled by position.  Sums are accumulated
    left to right in explicit loops, never by ``sum()``, which since
    python 3.12 compensates float addition: the allocation must not
    depend on the interpreter that computed it.
    """
    infinity = float("inf")
    weights = [flow.weight for flow in flows]
    caps = [min(flow.demand, flow.path_bandwidth) for flow in flows]
    allocation = [0.0] * len(flows)
    frozen = [False] * len(flows)
    # Constrained links in the order flows first cross them; a flow is
    # listed once per crossing, so a link crossed twice is charged twice.
    crossings: Dict[int, List[int]] = {}
    for position, flow in enumerate(flows):
        for link_id in flow.links:
            positions = crossings.get(link_id)
            if positions is None:
                if link_id not in capacities:
                    continue
                positions = crossings[link_id] = []
            positions.append(position)
    links = [(capacities[link_id], positions)
             for link_id, positions in crossings.items()]
    # What each link carries.  Allocations move once a round, so the sum
    # that decides saturation at the end of one round is the next round's
    # ``capacity - used``.
    used = [0.0] * len(links)
    active = list(range(len(flows)))
    rounds = 0

    while active:
        rounds += 1
        # Smallest time-step at which either a link saturates or a flow
        # reaches its individual cap.
        step = infinity
        for row, (capacity, positions) in enumerate(links):
            active_weight = 0.0
            for position in positions:
                if not frozen[position]:
                    active_weight += weights[position]
            if active_weight <= _EPSILON:
                continue
            remaining = capacity - used[row]
            if remaining <= _EPSILON:
                step = 0.0
                break
            candidate = remaining / active_weight
            if candidate < step:
                step = candidate
        for position in active:
            headroom = caps[position] - allocation[position]
            if headroom <= _EPSILON:
                step = 0.0
                break
            candidate = headroom / weights[position]
            if candidate < step:
                step = candidate
        if step == infinity:
            # Nothing binds the remaining flows: give each its own cap (an
            # entirely unconstrained flow keeps whatever it has, which can
            # only happen for zero-bandwidth-relevant paths).
            for position in active:
                if caps[position] != infinity:
                    allocation[position] = caps[position]
            break

        for position in active:
            allocation[position] += weights[position] * step

        # Freeze flows at saturated links or at their own cap.
        for row, (capacity, positions) in enumerate(links):
            total = 0.0
            for position in positions:
                total += allocation[position]
            used[row] = total
            if total >= capacity - _EPSILON:
                for position in positions:
                    frozen[position] = True
        for position in active:
            if allocation[position] >= caps[position] - _EPSILON:
                frozen[position] = True
        active = [position for position in active if not frozen[position]]
    return ({flow.key: allocation[position]
             for position, flow in enumerate(flows)}, rounds)


def _disjoint_max_min(flows: Sequence[FlowDemand],
                      capacities: Mapping[int, float]
                      ) -> Optional[Dict[Hashable, float]]:
    """The allocation in closed form when no flow shares a link, else None.

    With every constrained link crossed by exactly one flow occurrence
    nothing is contended, so progressive filling can only stop a flow at
    its own tightest bound: ``min(demand, path_bandwidth, link
    capacities)``.  A flow that lists one link twice is two occurrences
    (the filler charges the link for each) and takes the slow path.  A
    wholly unconstrained flow ends at ``0.0`` when every flow is one, as
    the filler leaves it; beside a bounded flow it leaves it wherever
    the rounds until that flow froze carried it, which is no closed form
    worth having — slow path too.  O(Σ path lengths), no rounds.
    """
    infinity = float("inf")
    seen = set()
    unbounded = 0
    allocation: Dict[Hashable, float] = {}
    for flow in flows:
        bound = min(flow.demand, flow.path_bandwidth)
        for link_id in flow.links:
            capacity = capacities.get(link_id)
            if capacity is None:
                continue
            if link_id in seen:
                return None
            seen.add(link_id)
            if capacity < bound:
                bound = capacity
        if bound == infinity:
            unbounded += 1
            bound = 0.0
        allocation[flow.key] = bound
    if 0 < unbounded < len(flows):
        return None
    return allocation


def rtt_aware_max_min(flows: Sequence[FlowDemand],
                      capacities: Mapping[int, float]) -> Dict[Hashable, float]:
    """Exact RTT-weighted max-min allocation by progressive filling.

    All flows grow their rate as ``weight * t`` simultaneously; when a link
    saturates, the flows crossing it freeze at their current rate; when a
    flow reaches its demand or path cap it freezes too.  Links with infinite
    capacity never bind.  Returns ``{flow.key: rate}`` in **bits/s**.

    Flow keys are unique by contract (both callers key by container
    pair); two flows under one key would share one entry of the result.
    A flow is anything with :class:`FlowDemand`'s attributes — the fluid
    integrator passes the entries it keeps per flow, not a copy of them.

    Complexity: about ``F`` waterfilling rounds, each ``O(unfrozen flows
    + Σ path lengths)``.  A round freezes at least one flow unless
    ``weight * step`` rounds a hair short of the bound that set the step
    — from 1e8 bits/s up one double ulp exceeds the absolute 1e-9
    tolerance — and then the next round closes the gap: ``F + 2`` is the
    most a fuzz of such rates has taken.
    The result is deterministic — the same flows and capacities produce
    bit-identical allocations on every interpreter and machine — which
    is why every decentralized Emulation Manager converges to the same
    enforcement without coordination (§3).

    Link-disjoint problems — the fluid integrator's one pseudo-link per
    shaped pair, any single flow — are answered by
    :func:`_disjoint_max_min` ahead of the filler.
    """
    if not flows:
        return {}
    recording = telemetry.enabled()
    allocation = _disjoint_max_min(flows, capacities)
    if allocation is not None:
        if recording:
            telemetry.metrics.counter("sharing.closed_form").inc()
        return allocation
    started = telemetry.clock() if recording else 0.0
    allocation, iterations = _progressive_fill(flows, capacities)
    if recording:
        registry = telemetry.metrics
        registry.counter("sharing.solver_calls").inc()
        registry.counter("sharing.solver_iterations").inc(iterations)
        registry.counter("sharing.solver_seconds").inc(
            telemetry.clock() - started)
        registry.counter("sharing.solver_flows").inc(len(flows))
    return allocation


def paper_two_step_shares(flows: Sequence[FlowDemand],
                          capacities: Mapping[int, float]) -> Dict[Hashable, float]:
    """The paper's literal two-step computation, per link.

    Step 1: every flow on a link gets ``capacity * weight / Σ weights``.
    Step 2 (maximization): flows capped below their share (by demand, path
    bandwidth or a smaller share on another link) release their surplus,
    which is redistributed proportionally to the original shares of the
    remaining flows.  The flow's final rate is the minimum across its links.

    This heuristic exists for the sharing ablation
    (``repro.experiments.ablation_sharing``), not for any hot path.  Units
    match :func:`rtt_aware_max_min`; complexity is ``O(F·L)`` with exactly
    two passes.
    """
    if not flows:
        return {}
    links = _index_links(flows, capacities)
    flow_cap = {flow.key: min(flow.demand, flow.path_bandwidth)
                for flow in flows}

    initial: Dict[int, Dict[Hashable, float]] = {}
    for link_id, usage in links.items():
        total_weight = sum(flow.weight for flow in usage.flows)
        initial[link_id] = {
            flow.key: usage.capacity * flow.weight / total_weight
            for flow in usage.flows}

    # A flow's provisional rate is its smallest per-link share or its cap.
    provisional: Dict[Hashable, float] = {}
    for flow in flows:
        shares = [initial[link_id][flow.key] for link_id in flow.links
                  if link_id in initial]
        provisional[flow.key] = min([flow_cap[flow.key]] + shares)

    # One maximization pass per link: hand surplus to flows whose
    # provisional rate equals their share on this link (i.e. this link is
    # their bottleneck) proportionally to original shares.  A bonus is
    # additionally capped by the remaining headroom on the flow's *other*
    # links — the redistribution must never oversubscribe a neighbour.
    final = dict(provisional)
    used: Dict[int, float] = {
        link_id: sum(final[flow.key] for flow in usage.flows)
        for link_id, usage in links.items()}
    for link_id, usage in links.items():
        surplus = usage.capacity - used[link_id]
        if surplus <= _EPSILON:
            continue
        bottlenecked = [flow for flow in usage.flows
                        if final[flow.key] >= initial[link_id][flow.key] - _EPSILON
                        and final[flow.key] < flow_cap[flow.key] - _EPSILON]
        weight_sum = sum(initial[link_id][flow.key] for flow in bottlenecked)
        if weight_sum <= _EPSILON:
            continue
        for flow in bottlenecked:
            bonus = surplus * initial[link_id][flow.key] / weight_sum
            bonus = min(bonus, flow_cap[flow.key] - final[flow.key])
            for other in flow.links:
                if other in used and other != link_id:
                    bonus = min(bonus,
                                links[other].capacity - used[other])
            if bonus <= 0.0:
                continue
            final[flow.key] += bonus
            for touched in flow.links:
                if touched in used:
                    used[touched] += bonus
    return final
