"""End-to-end property composition (§3 formulas) with property-based checks."""

import math

import pytest
from hypothesis import given, settings, strategies as st
from test_engine_fastpath import assert_allocations_agree

from repro.core import compose_path, sharing
from repro.core.properties import PathProperties
from repro.core.sharing import FlowDemand
from repro.metadata.encoding import FlowRecord
from repro.scenario.topologies import dumbbell, throttling
from repro.topology import LinkProperties


def link(latency=0.0, bandwidth=1e9, jitter=0.0, loss=0.0,
         jitter_distribution="normal"):
    return LinkProperties(latency=latency, bandwidth=bandwidth,
                          jitter=jitter, loss=loss,
                          jitter_distribution=jitter_distribution)


class TestComposePath:
    def test_empty_path_is_identity(self):
        properties = compose_path([])
        assert properties.latency == 0.0
        assert properties.loss == 0.0
        assert properties.bandwidth == float("inf")
        assert properties.hops == 0

    def test_latencies_sum(self):
        properties = compose_path([link(latency=0.010), link(latency=0.020),
                                   link(latency=0.005)])
        assert properties.latency == pytest.approx(0.035)

    def test_bandwidth_is_minimum(self):
        properties = compose_path([link(bandwidth=100e6), link(bandwidth=10e6),
                                   link(bandwidth=50e6)])
        assert properties.bandwidth == 10e6

    def test_jitter_root_sum_of_squares(self):
        properties = compose_path([link(jitter=0.003), link(jitter=0.004)])
        assert properties.jitter == pytest.approx(0.005)

    @pytest.mark.parametrize("hops, expected", [
        pytest.param([("uniform", 0.003), ("uniform", 0.004)], "uniform",
                     id="all-uniform"),
        pytest.param([("uniform", 0.003), ("normal", 0.0)], "uniform",
                     id="a-jitter-free-link-has-no-say"),
        pytest.param([("uniform", 0.003), ("normal", 0.004)], "normal",
                     id="mixed"),
        pytest.param([("uniform", 0.0), ("uniform", 0.0)], "normal",
                     id="no-jitter-at-all"),
    ])
    def test_jitter_distribution_needs_every_jittered_link(self, hops,
                                                           expected):
        links = [link(jitter=jitter, jitter_distribution=distribution)
                 for distribution, jitter in hops]
        assert compose_path(links).jitter_distribution == expected
        merged = compose_path(links[:1]).merge_serial(compose_path(links[1:]))
        assert merged.jitter_distribution == expected

    def test_loss_complement_product(self):
        properties = compose_path([link(loss=0.1), link(loss=0.2)])
        assert properties.loss == pytest.approx(1 - 0.9 * 0.8)

    def test_figure1_collapse_values(self):
        """Figure 1: c1->sv collapses to 10 Mb/s, 35 ms."""
        c1_s1 = link(latency=0.010, bandwidth=10e6)
        s1_s2 = link(latency=0.020, bandwidth=100e6)
        s2_sv = link(latency=0.005, bandwidth=50e6)
        properties = compose_path([c1_s1, s1_s2, s2_sv])
        assert properties.bandwidth == 10e6
        assert properties.latency == pytest.approx(0.035)

    def test_hops_counted(self):
        assert compose_path([link(), link(), link()]).hops == 3


class TestMergeSerial:
    def test_merge_matches_full_composition(self):
        links = [link(latency=0.01, bandwidth=5e6, jitter=0.001, loss=0.01),
                 link(latency=0.02, bandwidth=8e6, jitter=0.002, loss=0.02)]
        merged = compose_path(links[:1]).merge_serial(compose_path(links[1:]))
        full = compose_path(links)
        assert merged.latency == pytest.approx(full.latency)
        assert merged.jitter == pytest.approx(full.jitter)
        assert merged.loss == pytest.approx(full.loss)
        assert merged.bandwidth == full.bandwidth
        assert merged.hops == full.hops


# --------------------------------------------------------------------------
# Property-based invariants
# --------------------------------------------------------------------------

link_strategy = st.builds(
    link,
    latency=st.floats(min_value=0.0, max_value=1.0),
    bandwidth=st.floats(min_value=1e3, max_value=1e12),
    jitter=st.floats(min_value=0.0, max_value=0.1),
    loss=st.floats(min_value=0.0, max_value=0.99),
)


@given(st.lists(link_strategy, min_size=1, max_size=8))
def test_loss_stays_in_unit_interval(links):
    assert 0.0 <= compose_path(links).loss <= 1.0


@given(st.lists(link_strategy, min_size=1, max_size=8))
def test_bandwidth_never_exceeds_any_link(links):
    properties = compose_path(links)
    assert all(properties.bandwidth <= l.bandwidth for l in links)


@given(st.lists(link_strategy, min_size=1, max_size=8))
def test_latency_at_least_max_single_link(links):
    properties = compose_path(links)
    assert properties.latency >= max(l.latency for l in links) - 1e-12


@given(st.lists(link_strategy, min_size=2, max_size=8))
def test_adding_a_hop_never_reduces_loss(links):
    shorter = compose_path(links[:-1])
    longer = compose_path(links)
    assert longer.loss >= shorter.loss - 1e-12


@given(st.lists(link_strategy, min_size=1, max_size=6),
       st.lists(link_strategy, min_size=1, max_size=6))
def test_composition_is_associative(first, second):
    merged = compose_path(first).merge_serial(compose_path(second))
    full = compose_path(first + second)
    assert merged.latency == pytest.approx(full.latency)
    assert merged.jitter == pytest.approx(full.jitter, abs=1e-9)
    assert merged.loss == pytest.approx(full.loss, abs=1e-9)
    assert merged.bandwidth == full.bandwidth


@given(st.lists(link_strategy, min_size=1, max_size=8))
def test_jitter_bounded_by_sum_and_max(links):
    """RSS composition lies between the max and the plain sum of jitters."""
    properties = compose_path(links)
    jitters = [l.jitter for l in links]
    assert properties.jitter <= sum(jitters) + 1e-12
    assert properties.jitter >= max(jitters) - 1e-12


# --------------------------------------------------------------------------
# The link-disjoint closed form, and the floor every manager derives
# --------------------------------------------------------------------------

_rates = st.one_of(st.just(float("inf")), st.just(0.0),
                   st.floats(min_value=1e3, max_value=1e10))


@st.composite
def disjoint_problem(draw):
    """Flows over private links: finite and infinite demands, path
    bandwidths and capacities, links absent from ``capacities`` (shared
    freely — they constrain nobody), flows with no links at all."""
    flow_count = draw(st.integers(min_value=1, max_value=12))
    capacities, flows, next_link = {}, [], 0
    for index in range(flow_count):
        links = []
        for _ in range(draw(st.integers(min_value=0, max_value=3))):
            if draw(st.booleans()):
                links.append(1000 + draw(st.integers(0, 3)))   # no capacity
            else:
                capacities[next_link] = draw(_rates)
                links.append(next_link)
                next_link += 1
        flows.append(FlowDemand(
            f"f{index}", draw(st.floats(min_value=1e-4, max_value=0.5)),
            tuple(links), demand=draw(_rates), path_bandwidth=draw(_rates)))
    return flows, capacities


def tightest_bound(flow, capacities):
    return min([flow.demand, flow.path_bandwidth]
               + [capacities[link] for link in flow.links
                  if link in capacities])


@settings(max_examples=200, deadline=None)
@given(disjoint_problem())
def test_closed_form_equals_progressive_filling(problem):
    flows, capacities = problem
    closed = sharing._disjoint_max_min(flows, capacities)
    unbounded = sum(tightest_bound(flow, capacities) == float("inf")
                    for flow in flows)
    if 0 < unbounded < len(flows):
        # The filler leaves an unconstrained flow wherever the rounds
        # spent on its bounded neighbours carried it: not the fast path.
        assert closed is None
        return
    assert_allocations_agree(
        sharing._progressive_fill(flows, capacities)[0], closed)


@given(disjoint_problem(), st.data())
def test_closed_form_declines_a_shared_or_repeated_link(problem, data):
    flows, capacities = problem
    capacities[5000] = 1e6
    victim = data.draw(st.integers(0, len(flows) - 1))
    other = data.draw(st.integers(0, len(flows) - 1))   # == victim: repeat
    for index in {victim, other}:
        flow = flows[index]
        extra = (5000, 5000) if victim == other else (5000,)
        flows[index] = FlowDemand(flow.key, flow.rtt, flow.links + extra,
                                  flow.demand, flow.path_bandwidth)
    assert sharing._disjoint_max_min(flows, capacities) is None


# Equal and unequal RTTs, one and several bottlenecks, access links that
# bind before the shared one, and paths nothing bounds at all.
_TOPOLOGIES = {
    "dumbbell": lambda: dumbbell(4, shared_bandwidth=40e6),
    "narrow access": lambda: dumbbell(4, shared_bandwidth=40e6,
                                      access_bandwidth=30e6),
    "unlimited access": lambda: dumbbell(4, shared_bandwidth=40e6,
                                         access_bandwidth=float("inf")),
    "three bridges (fig8)": throttling,
}
# Usage as a multiple of (floor share / growth headroom): 1.0 puts the
# estimated demand exactly on the floor share, its neighbours a hair to
# either side — where "this cap cannot bind" is decided.
_USAGE_FACTORS = [0.1, 0.5, 1 - 1e-5, 1 - 1e-7, 1.0, 1 + 1e-7, 1 + 1e-5,
                  1.2, 3.0]


def both_passes(manager, flows):
    """The sharing model with nothing remembered and nothing skipped."""
    collapsed = manager.collapsed
    wants_all, demands = [], []
    for key, record in flows.items():
        bandwidth = collapsed.path(*key).properties.bandwidth
        wants_all.append(FlowDemand(key, collapsed.rtt(*key),
                                    record.link_ids,
                                    path_bandwidth=bandwidth))
        demands.append(FlowDemand(key, collapsed.rtt(*key), record.link_ids,
                                  manager._estimated_demand(key, record),
                                  bandwidth))
    floor = sharing.rtt_aware_max_min(wants_all, manager.capacities)
    boosted = sharing.rtt_aware_max_min(demands, manager.capacities)
    return floor, {key: max(floor[key], boosted[key]) for key in flows}


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(sorted(_TOPOLOGIES)),
       st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11),
                          st.sampled_from(_USAGE_FACTORS)),
                min_size=1, max_size=12, unique_by=lambda flow: flow[:2]),
       st.sampled_from(_USAGE_FACTORS))
def test_managers_with_one_view_hold_one_model(topology, view, drift):
    """§3's decentralisation claim, and the licence for the loop's
    shortcuts: the fair-share floor is a function of the merged view and
    the installed state alone, so every manager — whatever its own cores
    carry — holds the same floats, and keeps them while only usage moves;
    and the shares it enforces are, to the bit, what solving both passes
    outright gives, whether the maximization pass was run or recognised
    as unable to differ from the floor."""
    engine = _TOPOLOGIES[topology]().deploy(
        machines=4, seed=1).compile().engine()
    names = sorted(engine.container_indices)
    factors = {}
    for source, destination, factor in view:
        key = (names[source % len(names)], names[destination % len(names)])
        if key[0] != key[1]:
            factors.setdefault(key, factor)
    collapsed = engine.current_state.collapsed
    everything = {key: FlowRecord(engine.container_indices[key[0]],
                                  engine.container_indices[key[1]],
                                  float("inf"), collapsed.path(*key).link_ids)
                  for key in factors}
    manager = next(iter(engine.managers.values()))
    floor, _ = both_passes(manager, everything)

    def usage(scale):
        return {key: FlowRecord(
            record.source_index, record.destination_index,
            max(floor[key], 1e4) / 1.5 * factors[key] * scale,
            record.link_ids) for key, record in everything.items()}

    flows, drifted = usage(1.0), usage(drift)
    for manager in engine.managers.values():
        allocation = manager._compute_shares(dict(flows))
        memo = manager._floor_memo
        assert memo.floor == floor
        assert allocation == both_passes(manager, flows)[1]
        allocation = manager._compute_shares(drifted)
        assert manager._floor_memo is memo
        assert allocation == both_passes(manager, drifted)[1]


@settings(max_examples=50, deadline=None)
@given(st.sampled_from(sorted(_TOPOLOGIES)),
       st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11),
                          st.floats(min_value=1e3, max_value=1e9),
                          st.one_of(st.none(),
                                    st.floats(min_value=2e3, max_value=1e9))),
                min_size=1, max_size=12, unique_by=lambda flow: flow[:2]))
def test_no_flow_is_enforced_below_its_floor_share(topology, view):
    """§3's fairness guarantee, on the path a converged loop no longer
    runs every period: whatever a flow used last period and whatever rate
    its chain carried, every manager allocates it at least its all-``inf``
    RTT-aware max-min share, and each of its local chains leaves the
    iteration carrying at least that — to the last ulps: a floor filled
    up to the path bandwidth can round a hair above it, and a chain off
    contention carries the path bandwidth itself."""
    engine = _TOPOLOGIES[topology]().deploy(
        machines=4, seed=1).compile().engine()
    names = sorted(engine.container_indices)
    collapsed = engine.current_state.collapsed
    flows, carried = {}, {}
    for source, destination, used, htb_rate in view:
        key = (names[source % len(names)], names[destination % len(names)])
        if key[0] != key[1] and key not in flows:
            flows[key] = FlowRecord(engine.container_indices[key[0]],
                                    engine.container_indices[key[1]], used,
                                    collapsed.path(*key).link_ids)
            carried[key] = htb_rate
    for manager in engine.managers.values():
        local = {key: record for key, record in flows.items()
                 if key[0] in manager.cores}
        for (source, destination), record in local.items():
            if carried[(source, destination)] is not None:
                engine.tcals[source].set_bandwidth(
                    destination, carried[(source, destination)])
        floor, _ = both_passes(manager, flows)
        allocation = manager._compute_shares(dict(flows))
        for key in flows:
            assert allocation[key] >= floor[key], key
        manager._enforce(local, flows)
        for source, destination in local:
            chain = engine.tcals[source].shaping_for(destination)
            assert chain.htb.rate >= \
                floor[(source, destination)] * (1 - 1e-12)
