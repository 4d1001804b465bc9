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

Solver backends
---------------

:func:`rtt_aware_max_min` has two interchangeable implementations:

* **numpy** — each waterfilling round is vectorized min/masking over a
  link×flow membership matrix that is built once per (flow set, link set)
  epoch and reused across solves (the Emulation Manager re-solves the same
  structure every loop period; the fluid integrator every ``dt``).
* **python** — the original dict-based progressive filler, dependency-free.

Selection is automatic, from what the code can observe: a solve of at
least ``_VECTORIZE_MIN_FLOWS`` flows runs on numpy when numpy is
importable, everything else on python — array setup costs more than the
whole scalar solve below that size, and the emulation loop's per-pair
solves are tiny.  Both backends run the same progressive filling and agree
within float round-off (< 1e-9 relative — enforced by
``tests/test_engine_fastpath.py`` and the benchmark checksum in
``BENCH_engine.json``); see ``docs/performance.md``.

Ahead of both sits a closed form (:func:`_disjoint_max_min`) for problems
in which no two flow occurrences share a constrained link: nothing is
contended there, each flow simply gets its tightest bound, and no round
is run — the fluid integrator's per-destination pseudo-links and every
single-flow solve.  It agrees with the fillers to the same 1e-9.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import (Dict, Hashable, Iterable, List, Mapping, Optional,
                    Sequence, Tuple)

from repro import telemetry

__all__ = ["FlowDemand", "LinkUsage", "rtt_aware_max_min",
           "paper_two_step_shares", "solver_backend"]

_EPSILON = 1e-9

#: Solves below this flow count stay on the python path: the measured
#: crossover is ~8 flows (array construction dominates under it,
#: vectorized rounds win above it).
_VECTORIZE_MIN_FLOWS = 8


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


# ---------------------------------------------------------------------------
# Backend selection.
# ---------------------------------------------------------------------------

_np = None
_np_probed = False


def _numpy():
    """The numpy module, or None — probed once per process."""
    global _np, _np_probed
    if not _np_probed:
        _np_probed = True
        try:
            import numpy
            _np = numpy
        except ImportError:
            _np = None
    return _np


def solver_backend() -> str:
    """The backend solves of ``_VECTORIZE_MIN_FLOWS`` flows or more run on:
    ``"numpy"`` when it is importable, ``"python"`` otherwise."""
    return "numpy" if _numpy() is not None else "python"


# ---------------------------------------------------------------------------
# Membership matrix cache (numpy backend).
#
# The hot callers — the Emulation Manager's loop and the fluid integrator —
# re-solve the *same* (flow set, link set) structure every period with only
# demands changing, so the link×flow matrix is built once per topology epoch
# and reused.  The key deliberately ignores capacity *values* (they become a
# fresh vector each solve) so dynamic bandwidth events don't evict it.
# ---------------------------------------------------------------------------

_MATRIX_CACHE_CAPACITY = 64
_matrix_cache: "OrderedDict[tuple, tuple]" = OrderedDict()
_matrix_lock = threading.Lock()


def clear_matrix_cache() -> None:
    """Drop every cached membership matrix (tests, topology teardown)."""
    with _matrix_lock:
        _matrix_cache.clear()


def _membership(flows: Sequence[FlowDemand],
                capacities: Mapping[int, float]):
    """(link order, float matrix, bool matrix) for this problem structure.

    ``matrix[l, f]`` counts how many times flow ``f`` traverses link ``l``
    (matching the pure-python accounting, which counts one flow per path
    occurrence); links absent from ``capacities`` are unconstrained and
    excluded entirely.
    """
    np = _numpy()
    key = (tuple(flow.links for flow in flows), frozenset(capacities))
    with _matrix_lock:
        entry = _matrix_cache.get(key)
        if entry is not None:
            _matrix_cache.move_to_end(key)
    if entry is not None:
        if telemetry.enabled():
            telemetry.metrics.counter("sharing.matrix_reuses").inc()
        return entry
    rows: Dict[int, int] = {}
    link_order: List[int] = []
    for flow in flows:
        for link_id in flow.links:
            if link_id in capacities and link_id not in rows:
                rows[link_id] = len(link_order)
                link_order.append(link_id)
    matrix = np.zeros((len(link_order), len(flows)), dtype=float)
    for column, flow in enumerate(flows):
        for link_id in flow.links:
            row = rows.get(link_id)
            if row is not None:
                matrix[row, column] += 1.0
    entry = (tuple(link_order), matrix, matrix > 0.0)
    with _matrix_lock:
        _matrix_cache[key] = entry
        while len(_matrix_cache) > _MATRIX_CACHE_CAPACITY:
            _matrix_cache.popitem(last=False)
    if telemetry.enabled():
        telemetry.metrics.counter("sharing.matrix_builds").inc()
    return entry


# ---------------------------------------------------------------------------
# The two rtt_aware_max_min implementations.
# ---------------------------------------------------------------------------

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


def _python_max_min(flows: Sequence[FlowDemand],
                    capacities: Mapping[int, float]
                    ) -> Tuple[Dict[Hashable, float], int]:
    """The original dict-based progressive filler; returns (allocation,
    waterfilling rounds)."""
    iterations = 0
    links = _index_links(flows, capacities)
    allocation: Dict[Hashable, float] = {flow.key: 0.0 for flow in flows}
    frozen: Dict[Hashable, bool] = {flow.key: False for flow in flows}
    flow_cap = {flow.key: min(flow.demand, flow.path_bandwidth)
                for flow in flows}

    while not all(frozen.values()):
        iterations += 1
        # Smallest time-step at which either a link saturates or a flow
        # reaches its individual cap.
        step = float("inf")
        for usage in links.values():
            active_weight = sum(flow.weight for flow in usage.flows
                                if not frozen[flow.key])
            if active_weight <= _EPSILON:
                continue
            remaining = usage.capacity - sum(
                allocation[flow.key] for flow in usage.flows)
            if remaining <= _EPSILON:
                step = 0.0
                break
            step = min(step, remaining / active_weight)
        for flow in flows:
            if frozen[flow.key]:
                continue
            headroom = flow_cap[flow.key] - allocation[flow.key]
            if headroom <= _EPSILON:
                step = 0.0
                break
            step = min(step, headroom / flow.weight)
        if step == float("inf"):
            # Nothing binds the remaining flows: give each its own cap (an
            # entirely unconstrained flow keeps whatever it has, which can
            # only happen for zero-bandwidth-relevant paths).
            for flow in flows:
                if not frozen[flow.key]:
                    if flow_cap[flow.key] != float("inf"):
                        allocation[flow.key] = flow_cap[flow.key]
                    frozen[flow.key] = True
            break

        for flow in flows:
            if not frozen[flow.key]:
                allocation[flow.key] += flow.weight * step

        # Freeze flows at saturated links or at their own cap.
        for usage in links.values():
            used = sum(allocation[flow.key] for flow in usage.flows)
            if used >= usage.capacity - _EPSILON:
                for flow in usage.flows:
                    frozen[flow.key] = True
        for flow in flows:
            if allocation[flow.key] >= flow_cap[flow.key] - _EPSILON:
                frozen[flow.key] = True
    return allocation, iterations


def _numpy_max_min(flows: Sequence[FlowDemand],
                   capacities: Mapping[int, float]
                   ) -> Tuple[Dict[Hashable, float], int]:
    """Vectorized progressive filling; returns (allocation, rounds).

    Identical waterfilling to :func:`_python_max_min`, expressed as whole-
    array operations over the cached link×flow membership matrix.  The
    saturation tolerance scales with magnitude (``ε·max(capacity, 1)``)
    so rates around 1e8 bits/s — where one double ulp exceeds the absolute
    ε — still freeze in one round; the resulting allocations stay within
    1e-9 relative of the python backend's.
    """
    np = _np
    link_order, matrix, member = _membership(flows, capacities)
    count = len(flows)
    weights = np.fromiter((flow.weight for flow in flows),
                          dtype=float, count=count)
    caps = np.fromiter((min(flow.demand, flow.path_bandwidth)
                        for flow in flows), dtype=float, count=count)
    link_caps = np.fromiter((capacities[link_id] for link_id in link_order),
                            dtype=float, count=len(link_order))
    finite_links = np.isfinite(link_caps)
    link_slack = np.where(finite_links,
                          np.maximum(np.abs(link_caps), 1.0) * _EPSILON, 0.0)
    finite_caps = np.isfinite(caps)
    cap_slack = np.where(finite_caps,
                         np.maximum(np.abs(caps), 1.0) * _EPSILON, 0.0)
    allocation = np.zeros(count)
    frozen = np.zeros(count, dtype=bool)
    # Link usage tracked incrementally: one matmul per round, not two.
    used = np.zeros(len(link_order))
    saturation_floor = link_caps - link_slack
    cap_floor = caps - cap_slack
    iterations = 0
    infinity = float("inf")
    # Every round with a finite step freezes at least one flow, so the
    # guard is never reached in practice; it bounds pathological float
    # behaviour instead of looping forever.
    guard = 4 * count + 64
    while not frozen.all() and iterations < guard:
        iterations += 1
        active_weights = np.where(frozen, 0.0, weights)
        step = infinity
        active_weight = None
        if len(link_order):
            active_weight = matrix @ active_weights
            binding = finite_links & (active_weight > _EPSILON)
            if binding.any():
                remaining = link_caps[binding] - used[binding]
                link_steps = np.where(remaining <= link_slack[binding], 0.0,
                                      remaining / active_weight[binding])
                step = float(link_steps.min())
        headroom = np.where(frozen, infinity, caps - allocation)
        flow_steps = np.where(headroom <= cap_slack, 0.0,
                              headroom / weights)
        step = min(step, float(flow_steps.min()))
        if step == infinity:
            unconstrained = ~frozen & finite_caps
            allocation[unconstrained] = caps[unconstrained]
            break
        if step > 0.0:
            allocation += active_weights * step
            if active_weight is not None:
                used += active_weight * step
        if len(link_order):
            saturated = finite_links & (used >= saturation_floor)
            if saturated.any():
                frozen |= member[saturated].any(axis=0)
        frozen |= allocation >= cap_floor
    return ({flow.key: float(allocation[index])
             for index, flow in enumerate(flows)}, iterations)


def _disjoint_max_min(flows: Sequence[FlowDemand],
                      capacities: Mapping[int, float]
                      ) -> Optional[Dict[Hashable, float]]:
    """The allocation in closed form when no flow shares a link, else None.

    With every constrained link crossed by exactly one flow occurrence
    nothing is contended, so progressive filling can only stop a flow at
    its own tightest bound: ``min(demand, path_bandwidth, link
    capacities)``.  A flow that lists one link twice is two occurrences
    (the fillers charge the link for each) and takes the slow path.  A
    wholly unconstrained flow ends at ``0.0`` when every flow is one, as
    the fillers leave it; beside a bounded flow they leave it wherever
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

    Complexity: at most ``F`` waterfilling rounds (each round freezes at
    least one flow), each ``O(F + Σ path lengths)`` — vectorized on the
    numpy backend, dict loops on the python one (see :func:`solver_backend`
    and ``docs/performance.md``).  The result is deterministic: the same
    flows and capacities produce bit-identical allocations on one backend,
    and the two backends agree within 1e-9 relative — which is why every
    decentralized Emulation Manager converges to the same enforcement
    without coordination (§3).

    Link-disjoint problems — the fluid integrator's one pseudo-link per
    shaped pair, any single flow — are answered by
    :func:`_disjoint_max_min` ahead of both backends.
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
    if len(flows) >= _VECTORIZE_MIN_FLOWS and _numpy() is not None:
        allocation, iterations = _numpy_max_min(flows, capacities)
    else:
        allocation, iterations = _python_max_min(flows, capacities)
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

    Always pure python: this heuristic exists for the sharing ablation
    (``repro.experiments.ablation_sharing``), not for any hot path, so it
    is not worth a vectorized twin.  Units and determinism match
    :func:`rtt_aware_max_min`; complexity is ``O(F·L)`` with exactly two
    passes.
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
