"""The engine core's fast paths: one fair-share filler, the collapse memo.

Two families of guarantees from docs/performance.md are pinned here:

* what the sharing model claims of an allocation — RTT-weighted max-min
  optimality, no oversubscribed link, independence from the order flows
  are listed in — on hypothesis-generated problems and whole fuzz-corpus
  scenarios (the filler's exact floats are pinned separately, by
  ``tests/golden/fair_share_allocations.json``);
* the collapse memo's two tiers trigger exactly when they should — a hit
  when the structural topology signature matches, an incremental
  recompute (the previous routing shared, a fresh property map) when only
  bandwidth, jitter or loss changed since the previous collapse — and a
  shortest-path tree is built by the first lookup from its source and by
  nothing else — or, after a pure latency rise off it, inherited from the
  routing before — observed through the telemetry counters the
  production code maintains.
"""

import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro import telemetry
from repro.core import (FlowDemand, clear_collapse_cache, collapse,
                        rtt_aware_max_min, topology_signature)
from repro.scenario.dsl.fuzz import generate_scenario
from repro.scenario.topologies import scale_free

MBPS = 1e6
TOLERANCE = 1e-9            # the solver's, absolute and relative


def memo_entries() -> int:
    """Collapses the memo holds (sys.modules: the attribute
    ``repro.core.collapse`` is the function)."""
    return len(sys.modules["repro.core.collapse"]._cache)


@pytest.fixture(autouse=True)
def _clean_engine_state():
    """Every test starts and ends with an empty collapse memo."""
    clear_collapse_cache()
    yield
    clear_collapse_cache()
    telemetry.disable()
    telemetry.metrics.clear()


# ---------------------------------------------------------------------------
# The model's claim about an allocation.
# ---------------------------------------------------------------------------

@st.composite
def allocation_problem(draw):
    """Like the strategy in test_core_sharing, plus finite demands and
    twice the flows and links."""
    link_count = draw(st.integers(min_value=1, max_value=8))
    capacities = {i: draw(st.floats(min_value=0.5 * MBPS,
                                    max_value=200 * MBPS))
                  for i in range(link_count)}
    flow_count = draw(st.integers(min_value=1, max_value=16))
    flows = []
    for index in range(flow_count):
        path_length = draw(st.integers(min_value=1, max_value=link_count))
        path = tuple(draw(st.permutations(range(link_count)))[:path_length])
        rtt = draw(st.floats(min_value=0.001, max_value=0.5))
        demand = draw(st.one_of(
            st.just(float("inf")),
            st.floats(min_value=0.1 * MBPS, max_value=100 * MBPS)))
        flows.append(FlowDemand(
            f"f{index}", rtt, path, demand=demand,
            path_bandwidth=min(capacities[i] for i in path)))
    return flows, capacities


def almost(value):
    """``value`` less the solver's tolerance, absolute and relative."""
    return value * (1 - TOLERANCE) - TOLERANCE


def assert_max_min(flows, capacities, allocation):
    """No link carries more than its capacity, and every flow is stopped
    by its own cap or crosses a saturated link on which no flow has a
    larger ``allocation / weight`` — so none can gain unless one that is
    no better off loses.  A link is charged once per crossing."""
    crossing = {}
    for flow in flows:
        for link_id in flow.links:
            if link_id in capacities:
                crossing.setdefault(link_id, []).append(flow)
    used = {link_id: sum(allocation[flow.key] for flow in members)
            for link_id, members in crossing.items()}
    for link_id, total in used.items():
        assert almost(total) <= capacities[link_id], (link_id, total)
    for flow in flows:
        rate = allocation[flow.key]
        if rate >= almost(min(flow.demand, flow.path_bandwidth)):
            continue
        level = rate / flow.weight
        assert any(
            used[link_id] >= almost(capacities[link_id])
            and all(almost(allocation[other.key] / other.weight) <= level
                    for other in crossing[link_id])
            for link_id in flow.links if link_id in crossing), (
                flow, rate)


def assert_allocations_agree(first, second):
    assert set(first) == set(second)
    for key, value in first.items():
        assert abs(second[key] - value) <= TOLERANCE * max(abs(value), 1.0), (
            key, value, second[key])


class TestMaxMinProperties:
    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_max_min_on_random_problems(self, data):
        flows, capacities = data.draw(allocation_problem())
        allocation = rtt_aware_max_min(flows, capacities)
        assert_max_min(flows, capacities, allocation)
        reordered = data.draw(st.permutations(flows))
        assert_allocations_agree(
            allocation, rtt_aware_max_min(reordered, capacities))

    def test_max_min_on_fuzz_corpus(self):
        """Whole generated scenarios: collapse each fuzz topology, build
        one saturating FlowDemand per container pair, solve it forwards
        and backwards."""
        solved = 0
        for builder in (generate_scenario(7, index) for index in range(6)):
            topology = builder.compile().topology
            collapsed = collapse(topology, memo=False)
            capacities = {
                link.link_id: link.properties.bandwidth
                for link in topology.links()
                if link.properties.bandwidth != float("inf")}
            flows = []
            for path in collapsed.paths():
                flows.append(FlowDemand(
                    (path.source, path.destination),
                    collapsed.rtt(path.source, path.destination),
                    path.link_ids,
                    path_bandwidth=path.properties.bandwidth))
            if not flows:
                continue
            allocation = rtt_aware_max_min(flows, capacities)
            assert_max_min(flows, capacities, allocation)
            assert_allocations_agree(
                allocation, rtt_aware_max_min(flows[::-1], capacities))
            solved += len(flows)
        assert solved > 0


# The class name is part of a test id the tier-1 floor pins.
class TestBackendEquivalence:
    def test_duplicate_link_traversal_counted_twice(self):
        """A path crossing the same link twice consumes double capacity
        on it."""
        flows = [FlowDemand("loop", 0.02, (0, 1, 0),
                            path_bandwidth=float("inf"))]
        flows += [FlowDemand(f"pad{i}", 0.02, (1,),
                             path_bandwidth=float("inf"))
                  for i in range(2)]
        allocation = rtt_aware_max_min(flows, {0: 10 * MBPS, 1: 100 * MBPS})
        assert allocation["loop"] == pytest.approx(5 * MBPS, rel=1e-6)


# ---------------------------------------------------------------------------
# Collapse memoization.
# ---------------------------------------------------------------------------

def counter(name):
    return telemetry.metrics.counter(name).value


@pytest.fixture
def traced():
    telemetry.metrics.clear()
    telemetry.enable()
    yield
    telemetry.disable()
    telemetry.metrics.clear()


def small_topology(seed=3):
    return scale_free(40, seed=seed).compile().topology


class TestCollapseMemo:
    def test_structural_copy_is_a_hit(self, traced):
        topology = small_topology()
        collapse(topology)
        recomputes = counter("collapse.recomputes")
        twin = topology.copy()
        assert topology_signature(twin) == topology_signature(topology)
        collapse(twin)
        assert counter("collapse.memo_hits") == 1
        assert counter("collapse.recomputes") == recomputes

    def test_hit_shares_the_path_table(self, traced):
        topology = small_topology()
        first = collapse(topology)
        second = collapse(topology.copy())
        assert second.path is not None
        for path in first.paths():
            assert second.path(path.source, path.destination) is path

    def test_paths_are_built_once_by_whoever_asks_first(self, traced):
        topology = small_topology()
        first = collapse(topology)
        pairs = first.pair_count()
        assert counter("collapse.pairs") == pairs > 0
        assert counter("collapse.paths_built") == 0
        a, b = topology.container_names()[:2]
        assert first.path(a, b) is first.path(a, b)
        assert first.path(a, "ghost") is None
        assert counter("collapse.paths_built") == 1
        # A hit shares what was built, and adds to it.
        second = collapse(topology.copy())
        assert second.path(a, b) is first.path(a, b)
        assert counter("collapse.paths_built") == 1
        assert len(second.paths()) == pairs
        assert counter("collapse.paths_built") == pairs
        assert len(first.paths()) == pairs
        assert counter("collapse.paths_built") == pairs
        assert counter("collapse.pairs") == pairs       # one recompute

    def test_trees_are_built_by_the_first_lookup_from_a_source(self, traced):
        topology = small_topology()
        services = len(topology.services)
        first = collapse(topology)            # telemetry on: counts pairs
        assert counter("collapse.pairs") == first.pair_count() > 0
        assert counter("collapse.trees_built") == 0
        a, b, c = topology.container_names()[:3]
        first.path(a, b)
        first.path(a, c)
        for other in topology.container_names():
            first.path(a, other)
        assert counter("collapse.trees_built") == 1
        # A hit and an incremental view share the trees, and add to them.
        second = collapse(topology.copy())
        shaped = topology.copy()
        link = next(iter(shaped.links()))
        shaped.update_link(link.source, link.destination, loss=0.25)
        third = collapse(shaped)
        assert counter("collapse.incremental_recomputes") == 1
        second.rtt(a, b)
        third.path(b, a)
        assert counter("collapse.trees_built") == 2
        assert len(third.paths()) == first.pair_count()
        assert counter("collapse.trees_built") == services
        first.paths()
        assert counter("collapse.trees_built") == services

    def test_probing_thirty_pairs_builds_at_most_sixty_trees(self, traced):
        """``scale_free_install``'s shape: 287 services, 30 ping pairs."""
        from repro.experiments.table4 import pick_pairs
        from repro.scenario import ping
        bare = scale_free(430, seed=1).compile()
        pairs = pick_pairs(bare, seed=1, pair_count=30)
        builder = scale_free(430, seed=1)
        for a, b in pairs:
            builder.workload(ping(a, b, count=3, interval=0.05, key=(a, b)))
        run = builder.deploy(machines=4, seed=1, duration=0.5,
                             enforce_bandwidth_sharing=False).compile().run()
        assert all(len(run.metric(pair).latency) == 3 for pair in pairs)
        sources = {name.split(".")[0] for pair in pairs for name in pair}
        assert counter("collapse.trees_built") == len(sources) <= 60
        assert counter("collapse.pairs") == 287 * 286

    def test_a_latency_rise_keeps_the_trees_it_is_not_on(self, traced):
        """``dynamic_churn``'s shape, smaller: 12 changes to distinct
        backbone links, every third a latency rise, 4 ping pairs.  Each
        of the 5 routings needs a tree per pinging service; 17 of the 40
        are the previous routing's, the rise being off them."""
        import random
        from repro.scenario import ping, set_link
        rng = random.Random(1)
        bare = scale_free(60, seed=1).compile()
        backbone = [link for link in bare.topology.links()
                    if link.source.startswith("sw")
                    and link.destination.startswith("sw")
                    and link.source < link.destination]
        builder = scale_free(60, seed=1)
        for index, link in enumerate(rng.sample(backbone, 12)):
            if index % 3 == 2:
                change = set_link(link.source, link.destination,
                                  latency=link.properties.latency * 2.0)
            else:
                change = set_link(link.source, link.destination,
                                  up=link.properties.bandwidth / 2.0)
            builder.at(0.5 * (index + 1), change)
        containers = bare.topology.container_names()
        pairs = []
        while len(pairs) < 4:
            pair = tuple(rng.sample(containers, 2))
            if pair not in pairs:
                pairs.append(pair)
        for index, (a, b) in enumerate(pairs):
            builder.workload(ping(a, b, count=110, interval=0.05,
                                  start=index * 0.001, key=(a, b)))
        run = builder.deploy(machines=4, seed=1, duration=7.0,
                             enforce_bandwidth_sharing=False).compile().run()
        assert all(len(run.metric(pair).latency) == 110 for pair in pairs)
        services = {name.split(".")[0] for pair in pairs for name in pair}
        assert counter("collapse.recomputes") == 5
        assert counter("collapse.incremental_recomputes") == 8
        assert counter("collapse.trees_built") == 23
        assert counter("collapse.trees_inherited") == 17
        assert 23 + 17 == 5 * len(services)

    def test_bandwidth_only_change_recomposes_incrementally(self, traced):
        topology = small_topology()
        baseline = collapse(topology)
        recomputes = counter("collapse.recomputes")
        # Halve a link that is some path's bottleneck, so the change is
        # observable in the collapsed table.
        by_id = {link.link_id: link for link in topology.links()}
        target = next(
            by_id[link_id]
            for path in baseline.paths() for link_id in path.link_ids
            if by_id[link_id].properties.bandwidth
            == path.properties.bandwidth)
        mutated = topology.copy()
        mutated.update_link(target.source, target.destination,
                            bandwidth=target.properties.bandwidth / 2)
        fresh = collapse(mutated)
        assert counter("collapse.incremental_recomputes") == 1
        assert counter("collapse.recomputes") == recomputes   # no Dijkstra
        # The incremental result must equal a genuine cold collapse.
        cold = collapse(mutated, memo=False)
        for path in cold.paths():
            twin = fresh.path(path.source, path.destination)
            assert twin.properties == path.properties
            assert twin.link_ids == path.link_ids

    def test_latency_change_recomputes_fully(self, traced):
        topology = small_topology()
        collapse(topology)
        recomputes = counter("collapse.recomputes")
        mutated = topology.copy()
        link = next(iter(mutated.links()))
        mutated.update_link(link.source, link.destination,
                            latency=link.properties.latency * 3)
        collapse(mutated)
        assert counter("collapse.recomputes") == recomputes + 1
        assert counter("collapse.incremental_recomputes") == 0

    def test_cache_is_bounded_lru(self, traced, monkeypatch):
        # sys.modules: the attribute repro.core.collapse is the function.
        monkeypatch.setattr(sys.modules["repro.core.collapse"],
                            "_CACHE_CAPACITY", 2)
        topologies = [small_topology(seed=index) for index in range(3)]
        for topology in topologies:
            collapse(topology)
        assert memo_entries() == 2
        assert counter("collapse.memo_invalidations") == 1
        # The oldest entry was evicted: collapsing it again is a miss.
        hits = counter("collapse.memo_hits")
        collapse(topologies[0])
        assert counter("collapse.memo_hits") == hits

    def test_clear_turns_hits_back_into_misses(self, traced):
        topology = small_topology()
        collapse(topology)
        clear_collapse_cache()
        assert memo_entries() == 0
        recomputes = counter("collapse.recomputes")
        collapse(topology)
        assert counter("collapse.recomputes") == recomputes + 1

    def test_memo_false_neither_reads_nor_populates(self, traced):
        topology = small_topology()
        collapse(topology, memo=False)
        assert memo_entries() == 0
        collapse(topology, memo=False)
        assert counter("collapse.memo_hits") == 0
        assert counter("collapse.recomputes") == 2

    def test_a_local_view_is_the_full_table_asked_for_its_rows(self,
                                                               traced):
        """§3: a manager asks the one table for its own containers' rows,
        which builds their trees alone; a manager after it shares them."""
        topology = small_topology()
        containers = topology.container_names()
        source = containers[0]
        local = collapse(topology)
        row = [local.path(source, other) for other in containers]
        assert counter("collapse.trees_built") == 1
        twin = collapse(topology.copy())
        assert all(shared is path for shared, path in zip(
            [twin.path(source, other) for other in containers], row))
        assert counter("collapse.memo_hits") == 1
        assert counter("collapse.trees_built") == 1
        assert len(twin.paths()) == local.pair_count()

    def test_only_the_previous_routing_is_shared(self, traced):
        """A capacity change shares the routing of the collapse just
        before it, and no older one."""
        topology = small_topology()
        collapse(topology)
        collapse(small_topology(seed=4))
        shaped = topology.copy()
        link = next(iter(shaped.links()))
        shaped.update_link(link.source, link.destination, loss=0.25)
        collapse(shaped)
        assert counter("collapse.incremental_recomputes") == 0
        assert counter("collapse.recomputes") == 3
        reshaped = shaped.copy()
        reshaped.update_link(link.source, link.destination, loss=0.5)
        assert collapse(reshaped)._routing is collapse(shaped)._routing
        assert counter("collapse.incremental_recomputes") == 1
