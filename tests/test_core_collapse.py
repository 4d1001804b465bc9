"""Network collapsing: shortest paths, determinism, local views."""

import dataclasses
import heapq
import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import clear_collapse_cache, collapse, topology_signature
from repro.core.collapse import (CollapsedPath, _dijkstra, _links_to,
                                 _service_graph)
from repro.core.properties import compose_path
from repro.topology import Bridge, LinkProperties, Service, Topology, TopologyError


def figure1_topology():
    """The running example from Figure 1 (left)."""
    topology = Topology("figure1")
    topology.add_service(Service("c1", image="iperf"))
    topology.add_service(Service("sv", image="nginx", replicas=2))
    topology.add_bridge(Bridge("s1"))
    topology.add_bridge(Bridge("s2"))
    topology.add_link("c1", "s1",
                      LinkProperties(latency=0.010, bandwidth=10e6))
    topology.add_link("s1", "s2",
                      LinkProperties(latency=0.020, bandwidth=100e6))
    topology.add_link("sv", "s2",
                      LinkProperties(latency=0.005, bandwidth=50e6))
    return topology


class TestFigure1:
    def test_c1_to_server_collapses_to_10mbps_35ms(self):
        collapsed = collapse(figure1_topology())
        path = collapsed.require_path("c1", "sv.0")
        assert path.bandwidth == 10e6
        assert path.latency == pytest.approx(0.035)

    def test_server_to_server_collapses_to_50mbps_10ms(self):
        """Figure 1 (right): sv1 <-> sv2 is 50 Mb/s at 10 ms."""
        collapsed = collapse(figure1_topology())
        path = collapsed.require_path("sv.0", "sv.1")
        assert path.bandwidth == 50e6
        assert path.latency == pytest.approx(0.010)

    def test_all_ordered_pairs_present(self):
        collapsed = collapse(figure1_topology())
        # 3 containers -> 6 ordered pairs.
        assert collapsed.pair_count() == 6

    def test_rtt_is_forward_plus_reverse(self):
        collapsed = collapse(figure1_topology())
        assert collapsed.rtt("c1", "sv.1") == pytest.approx(0.070)

    def test_link_ids_recorded_along_path(self):
        topology = figure1_topology()
        collapsed = collapse(topology)
        path = collapsed.require_path("c1", "sv.0")
        ids = {link.link_id: link for link in topology.links()}
        sources = [ids[i].source for i in path.link_ids]
        assert sources == ["c1", "s1", "s2"]

    def test_node_path_lists_traversed_nodes(self):
        collapsed = collapse(figure1_topology())
        path = collapsed.require_path("c1", "sv.1")
        assert path.node_path == ("c1", "s1", "s2", "sv.1")


class TestShortestPathSelection:
    def two_path_topology(self, fast_latency, slow_latency):
        topology = Topology()
        topology.add_service(Service("a"))
        topology.add_service(Service("b"))
        topology.add_bridge(Bridge("fast"))
        topology.add_bridge(Bridge("slow"))
        topology.add_link("a", "fast", LinkProperties(latency=fast_latency,
                                                      bandwidth=1e6))
        topology.add_link("fast", "b", LinkProperties(latency=fast_latency,
                                                      bandwidth=1e6))
        topology.add_link("a", "slow", LinkProperties(latency=slow_latency,
                                                      bandwidth=100e6))
        topology.add_link("slow", "b", LinkProperties(latency=slow_latency,
                                                      bandwidth=100e6))
        return topology

    def test_lowest_latency_path_wins(self):
        """Multipath is discarded: the latency-shortest path is chosen (§6)."""
        collapsed = collapse(self.two_path_topology(0.001, 0.010))
        path = collapsed.require_path("a", "b")
        assert "fast" in path.node_path
        assert path.bandwidth == 1e6  # bandwidth of the chosen path only

    def test_tie_broken_by_hops_then_name(self):
        topology = self.two_path_topology(0.005, 0.005)
        collapsed = collapse(topology)
        path = collapsed.require_path("a", "b")
        # Equal latency and hops: lexicographically smaller bridge wins,
        # deterministically on every Emulation Manager.
        assert "fast" in path.node_path

    def test_unreachable_pairs_absent(self):
        topology = Topology()
        topology.add_service(Service("a"))
        topology.add_service(Service("b"))
        topology.add_bridge(Bridge("s"))
        topology.add_link("a", "s", LinkProperties())
        collapsed = collapse(topology)
        assert collapsed.path("a", "b") is None
        with pytest.raises(TopologyError):
            collapsed.require_path("a", "b")


class TestRestrictedSources:
    def test_sources_limits_computation(self):
        """Each EM only collapses paths from its local containers (§3):
        asking the table for ``c1``'s row builds ``c1``'s tree alone."""
        collapsed = collapse(figure1_topology(), memo=False)
        assert collapsed.path("c1", "sv.0") is not None
        assert collapsed.path("c1", "sv.1") is not None
        assert list(collapsed._routing.trees) == ["c1"]

    def test_restricted_matches_full(self):
        """A local view — a table asked only for one row — answers that
        row as the table whose every row was built."""
        full = collapse(figure1_topology(), memo=False)
        full.paths()
        local = collapse(figure1_topology(), memo=False)
        for destination in ("sv.0", "sv.1"):
            assert local.require_path("c1", destination) == \
                full.require_path("c1", destination)
        assert list(local._routing.trees) == ["c1"]


class TestDirectionality:
    def test_asymmetric_bandwidth_respected(self):
        topology = Topology()
        topology.add_service(Service("a"))
        topology.add_service(Service("b"))
        topology.add_bridge(Bridge("s"))
        topology.add_link("a", "s", LinkProperties(bandwidth=10e6),
                          down_properties=LinkProperties(bandwidth=1e6))
        topology.add_link("s", "b", LinkProperties(bandwidth=100e6))
        collapsed = collapse(topology)
        assert collapsed.require_path("a", "b").bandwidth == 10e6
        assert collapsed.require_path("b", "a").bandwidth == 1e6

    def test_unidirectional_link_gives_one_way_reachability(self):
        topology = Topology()
        topology.add_service(Service("a"))
        topology.add_service(Service("b"))
        topology.add_bridge(Bridge("s"))
        topology.add_link("a", "s", LinkProperties(), bidirectional=False)
        topology.add_link("s", "b", LinkProperties(), bidirectional=False)
        collapsed = collapse(topology)
        assert collapsed.path("a", "b") is not None
        assert collapsed.path("b", "a") is None


class TestScaleFreeDeterminism:
    def test_two_collapses_agree(self):
        """Decentralized requirement: independent collapses are identical."""
        from repro.scenario.topologies import scale_free
        topology = scale_free(total_nodes=60, seed=3).compile().topology
        first = collapse(topology)
        second = collapse(topology.copy())
        for path in first.paths():
            other = second.require_path(path.source, path.destination)
            assert other.link_ids == path.link_ids


# ---------------------------------------------------------------------------
# The path table against an eager oracle.
#
# ``collapse`` keeps shortest-path trees and derives a pair's path when it is
# first asked for.  The oracle below is the assembly that preceded it — a
# Dijkstra that copies the whole link list on every relaxation, then one
# ``CollapsedPath`` per ordered pair, eagerly — kept here, and only here, as
# the reference: every float, link id, node name and the iteration order
# must come out ``==``.
# ---------------------------------------------------------------------------

def _oracle_dijkstra(graph, origin):
    if origin not in graph:
        return {}
    best = {origin: (0.0, 0)}
    chosen = {origin: []}
    done = set()
    queue = [(0.0, 0, (origin,), origin)]
    while queue:
        latency, hops, names, node = heapq.heappop(queue)
        if node in done:
            continue
        done.add(node)
        for link in graph[node]:
            neighbour = link.destination
            if neighbour in done:
                continue
            candidate = (latency + link.properties.latency, hops + 1)
            incumbent = best.get(neighbour)
            if incumbent is None or candidate < incumbent:
                best[neighbour] = candidate
                chosen[neighbour] = chosen[node] + [link]
                heapq.heappush(queue, (candidate[0], candidate[1],
                                       names + (neighbour,), neighbour))
    del chosen[origin]
    return chosen


def eager_table(topology, sources=None):
    """Every ``CollapsedPath`` of ``topology``, source-major, built up
    front: ``{(source, destination): path}``."""
    graph = {name: [] for name in topology.node_names()}
    for link in topology.links():
        if link.source in graph and link.destination in graph:
            graph[link.source].append(link)
    for edges in graph.values():
        edges.sort(key=lambda link: link.destination)

    def intra_service(service):
        for link in graph.get(service, []):
            reverse = next((back for back in graph.get(link.destination, [])
                            if back.destination == service), None)
            if reverse is not None:
                return [link, reverse]
        return None

    containers = topology.container_names()
    service_of = {name: name.split(".")[0] for name in containers}
    wanted = list(sources) if sources is not None else containers
    service_paths = {service: _oracle_dijkstra(graph, service)
                     for service in {service_of[name] for name in wanted
                                     if name in service_of}}
    table = {}
    for source in wanted:
        if source not in service_of:
            continue
        for destination in containers:
            if destination == source:
                continue
            if service_of[destination] == service_of[source]:
                links = intra_service(service_of[source])
            else:
                links = service_paths[service_of[source]].get(
                    service_of[destination])
            if links is None:
                continue
            table[(source, destination)] = CollapsedPath(
                source=source, destination=destination,
                properties=compose_path([link.properties for link in links]),
                link_ids=tuple(link.link_id for link in links),
                node_path=(source,) + tuple(
                    link.destination for link in links[:-1]) + (destination,))
    return table


def assert_matches_oracle(collapsed, topology):
    oracle = eager_table(topology)
    # Point lookups first — in reverse, so the order paths were built in
    # cannot be what orders paths() — then the whole table.
    for (source, destination), expected in reversed(list(oracle.items())):
        assert collapsed.path(source, destination) == expected
    assert collapsed.paths() == list(oracle.values())
    assert collapsed.pair_count() == len(oracle) == len(collapsed.paths())
    containers = topology.container_names()
    for source in containers:
        for destination in containers:
            if (source, destination) not in oracle:
                assert collapsed.path(source, destination) is None


def scale_free_topology():
    from repro.scenario.topologies import scale_free
    return scale_free(total_nodes=70, seed=11).compile().topology


def replicated_topology():
    """Figure 1 with three ``sv`` replicas (``sv -> s2 -> sv`` between
    them), a replicated client and a replicated service with no way back
    to itself."""
    topology = figure1_topology()
    topology.services["sv"].replicas = 3
    topology.services["c1"].replicas = 2
    topology.add_service(Service("sink", replicas=2))
    topology.add_link("s1", "sink", LinkProperties(latency=0.003, loss=0.01,
                                                   jitter=0.001),
                      bidirectional=False)
    return topology


def island_topology():
    """Two components, a one-way bridge and a service with no link."""
    topology = Topology("islands")
    for name in ("a", "b", "c", "d", "lonely"):
        topology.add_service(Service(name, replicas=2 if name == "c" else 1))
    for name in ("left", "right"):
        topology.add_bridge(Bridge(name))
    topology.add_link("a", "left", LinkProperties(latency=0.001, jitter=0.002))
    topology.add_link("b", "left", LinkProperties(latency=0.002, loss=0.05))
    topology.add_link("c", "right", LinkProperties(latency=0.003,
                                                   bandwidth=5e6))
    topology.add_link("d", "right", LinkProperties(latency=0.004),
                      bidirectional=False)
    return topology


TOPOLOGIES = {"scale_free": scale_free_topology,
              "replicated": replicated_topology,
              "islands": island_topology}


@pytest.fixture
def empty_memo():
    clear_collapse_cache()
    yield
    clear_collapse_cache()


@pytest.mark.parametrize("build", TOPOLOGIES.values(), ids=TOPOLOGIES.keys())
class TestAgainstEagerOracle:
    def test_cold_table(self, build):
        topology = build()
        assert_matches_oracle(collapse(topology, memo=False), topology)

    def test_restricted_sources(self, build):
        """The rows of a few sources, asked of the full table, are the
        oracle's, and build no tree of another service."""
        topology = build()
        containers = topology.container_names()
        # Out of table order, one named twice, one that does not exist.
        sources = [containers[-1], containers[0], containers[-1], "ghost.9"]
        oracle = eager_table(topology, sources)
        local = collapse(topology, memo=False)
        for source in sources:
            for destination in containers + ["ghost.9"]:
                assert local.path(source, destination) == \
                    oracle.get((source, destination))
        service_of = local._routing.service_of
        assert set(local._routing.trees) <= {
            service_of[source] for source in sources if source in service_of}

    def test_every_memo_tier(self, build, empty_memo):
        topology = build()
        assert_matches_oracle(collapse(topology), topology)        # miss
        # Hit: shares whatever the first view built, and builds the same.
        assert_matches_oracle(collapse(topology.copy()), topology)
        first = next(iter(topology.links()))
        # Incremental: same routing, other bandwidth / jitter / loss.
        shaped = topology.copy()
        shaped.update_link(first.source, first.destination, bandwidth=1234.5,
                           jitter=0.0007, loss=0.125)
        assert_matches_oracle(collapse(shaped), shaped)
        # Full: a latency change re-routes.
        rerouted = topology.copy()
        rerouted.update_link(first.source, first.destination,
                             latency=first.properties.latency + 0.5)
        assert_matches_oracle(collapse(rerouted), rerouted)
        # The donor and the first table are what they were.
        assert_matches_oracle(collapse(topology), topology)

    def test_incremental_view_built_before_the_donor(self, build, empty_memo):
        """Views of different property maps share trees, never paths."""
        topology = build()
        donor = collapse(topology)
        link = next(iter(topology.links()))
        shaped = topology.copy()
        shaped.update_link(link.source, link.destination, loss=0.5)
        assert_matches_oracle(collapse(shaped), shaped)
        assert_matches_oracle(donor, topology)

    def test_every_manager_agrees_with_the_full_table(self, build):
        """§3: each manager collapses from its own containers only, and
        all of them derive the same end-to-end paths."""
        topology = build()
        full = collapse(topology, memo=False)
        containers = topology.container_names()
        for machine in range(3):
            local = containers[machine::3]
            view = collapse(topology, memo=False)
            rows = [view.path(source, destination) for source in local
                    for destination in containers]
            assert [path for path in rows if path is not None] == [
                path for path in full.paths() if path.source in local]
            assert set(view._routing.trees) <= {
                source.split(".")[0] for source in local}

    def test_table_is_a_snapshot(self, build):
        """Later edits to the live topology do not reach a collapse."""
        topology = build()
        collapsed = collapse(topology, memo=False)
        oracle = eager_table(topology)
        for link in list(topology.links()):
            topology.update_link(link.source, link.destination,
                                 bandwidth=1.0, loss=0.9)
        assert collapsed.paths() == list(oracle.values())


class TestDijkstraTieBreak:
    """``_dijkstra``'s documented order: latency, then hops, then the
    lexicographic order of the traversed node names."""

    def build(self, routes):
        """``routes``: ``{(bridge, ...): per-hop latency}`` from a to b."""
        topology = Topology()
        topology.add_service(Service("a"))
        topology.add_service(Service("b"))
        for bridges, latency in routes.items():
            nodes = ("a",) + bridges + ("b",)
            for name in bridges:
                if not topology.has_node(name):
                    topology.add_bridge(Bridge(name))
            for source, destination in zip(nodes, nodes[1:]):
                if (source, destination) not in {
                        link.key for link in topology.links()}:
                    topology.add_link(source, destination,
                                      LinkProperties(latency=latency))
        return topology

    def node_path(self, topology):
        tree = _dijkstra(_service_graph(topology), "a")
        links = _links_to(tree, "b")
        assert "a" not in tree and _links_to(tree, "a") is None
        assert collapse(topology, memo=False).path("a", "b").node_path == \
            ("a",) + tuple(link.destination for link in links)
        return tuple(link.destination for link in links[:-1])

    def test_lower_latency_beats_fewer_hops(self):
        topology = self.build({("m",): 0.004, ("x", "y"): 0.002})
        assert self.node_path(topology) == ("x", "y")

    def test_equal_latency_takes_fewer_hops(self):
        # 2 x 3 ms against 3 x 2 ms; binary floats: both sum to 0.006.
        topology = self.build({("x", "y"): 0.002, ("z",): 0.003})
        assert 0.002 + 0.002 + 0.002 == 0.003 + 0.003
        assert self.node_path(topology) == ("z",)

    def test_equal_latency_and_hops_takes_lexicographic_names(self):
        topology = self.build({("n", "c"): 0.001, ("m", "z"): 0.001})
        assert self.node_path(topology) == ("m", "z")
        # Whatever order the links were declared in.
        mirrored = self.build({("m", "z"): 0.001, ("n", "c"): 0.001})
        assert self.node_path(mirrored) == ("m", "z")

    def test_names_compare_along_the_path_not_at_the_last_hop(self):
        """Both routes reach a shared last bridge with equal latency and
        hops: the one relaxed first stays, and that is the one through
        the lexicographically smaller first hop."""
        topology = self.build({("p", "last"): 0.001, ("q", "last"): 0.001})
        assert self.node_path(topology) == ("p", "last")


# ---------------------------------------------------------------------------
# Trees on first use: whatever is asked first, of whichever view, the
# answers are the eager oracle's.
# ---------------------------------------------------------------------------

@st.composite
def routed_topologies(draw):
    """A few services and bridges wired at random — few distinct
    latencies, so ties are common — plus a service behind a one-way link
    and an island nothing else touches."""
    topology = Topology("generated")
    for index in range(draw(st.integers(2, 5))):
        topology.add_service(Service(f"s{index}",
                                     replicas=draw(st.integers(1, 2))))
    for index in range(draw(st.integers(1, 4))):
        topology.add_bridge(Bridge(f"b{index}"))
    nodes = topology.node_names()
    wired = draw(st.sets(
        st.tuples(st.sampled_from(nodes), st.sampled_from(nodes))
        .filter(lambda pair: pair[0] < pair[1]), max_size=14))
    for source, destination in sorted(wired):
        properties = LinkProperties(
            latency=draw(st.sampled_from([0.001, 0.002, 0.003])),
            bandwidth=draw(st.sampled_from([1e6, 5e6, 1e9])))
        direction = draw(st.sampled_from(["both", "forward", "backward"]))
        if direction == "backward":
            source, destination = destination, source
        topology.add_link(source, destination, properties,
                          bidirectional=direction == "both")
    topology.add_service(Service("oneway"))
    topology.add_link("b0", "oneway", LinkProperties(latency=0.001),
                      bidirectional=False)
    topology.add_service(Service("island", replicas=2))
    topology.add_bridge(Bridge("shore"))
    topology.add_link("island", "shore", LinkProperties(latency=0.002))
    return topology


class TestTreesOnFirstUse:
    @settings(max_examples=60, deadline=None)
    @given(topology=routed_topologies(), data=st.data())
    def test_any_order_of_questions_gets_the_oracles_answers(self, topology,
                                                             data):
        clear_collapse_cache()
        try:
            shaped = topology.copy()
            link = next(iter(shaped.links()))
            shaped.update_link(link.source, link.destination,
                               bandwidth=4321.0, loss=0.125)
            oracle = eager_table(topology)
            views = [(collapse(topology), oracle),                  # miss
                     (collapse(topology.copy()), oracle),           # hit
                     (collapse(shaped), eager_table(shaped))]   # incremental
            assert len({id(view._routing) for view, _oracle in views}) == 1
            containers = topology.container_names()
            names = st.sampled_from(containers + ["ghost.0"])
            for _ in range(data.draw(st.integers(1, 12))):
                view, oracle = data.draw(st.sampled_from(views))
                question = data.draw(st.sampled_from(
                    ["path", "row", "pair_count", "paths"]))
                if question == "path":
                    source, destination = data.draw(names), data.draw(names)
                    assert view.path(source, destination) == \
                        oracle.get((source, destination))
                elif question == "row":
                    source = data.draw(names)
                    assert [view.path(source, destination)
                            for destination in containers] == [
                        oracle.get((source, destination))
                        for destination in containers]
                elif question == "pair_count":
                    assert view.pair_count() == len(oracle)
                else:
                    assert view.paths() == list(oracle.values())
        finally:
            clear_collapse_cache()

    def test_two_threads_racing_on_one_source_get_equal_paths(self):
        topology = scale_free_topology()
        oracle = eager_table(topology)
        source = topology.container_names()[0]
        wanted = [pair for pair in oracle if pair[0] == source]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                collapsed = collapse(topology, memo=False)
                barrier = threading.Barrier(4, timeout=10)
                answers = []

                def ask():
                    barrier.wait()
                    answers.append([collapsed.path(*pair) for pair in wanted])

                threads = [threading.Thread(target=ask) for _ in range(4)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=10)
                assert not any(thread.is_alive() for thread in threads)
                assert answers == [[oracle[pair] for pair in wanted]] * 4
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("build", TOPOLOGIES.values(),
                             ids=TOPOLOGIES.keys())
    def test_a_tree_built_later_is_of_the_collapsed_instant(self, build):
        """A latency edit to the live topology after ``collapse`` must not
        reach a tree that had not been built yet."""
        topology = build()
        collapsed = collapse(topology, memo=False)
        oracle = eager_table(topology)
        for link in list(topology.links()):
            topology.update_link(link.source, link.destination,
                                 latency=link.properties.latency * 7 + 0.1)
        assert collapsed.paths() == list(oracle.values())


def test_signatures_are_what_they_were_when_each_was_a_separate_pass():
    """Recorded at 3fc02a0, when the signature had a pass of its own."""
    from repro.scenario.topologies import scale_free
    pinned = [
        (figure1_topology(), "d17dd2acfec1c18b1129632276677501"),
        (scale_free(110, seed=11).compile().topology,
         "0d29a6af2904df69191cbe89ab076811"),
    ]
    for topology, full in pinned:
        # The third reads the link text the second kept.
        for _ in range(3):
            assert topology_signature(topology) == full


# ---------------------------------------------------------------------------
# Links are values: a copy shares them, an edit replaces one.
# ---------------------------------------------------------------------------

def _fresh(topology):
    """``topology`` rebuilt from scratch: equal, and sharing no link value
    (so no signature fragment a signature already formatted)."""
    rebuilt = Topology(topology.name)
    rebuilt.services = dict(topology.services)
    rebuilt.bridges = dict(topology.bridges)
    rebuilt._links = {link.key: dataclasses.replace(link)
                      for link in topology.links()}
    return rebuilt


class TestLinksAreValues:
    def test_a_link_field_cannot_be_assigned(self):
        link = next(iter(figure1_topology().links()))
        for name in ("source", "destination", "properties", "network",
                     "link_id"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(link, name, getattr(link, name))

    @pytest.mark.parametrize("edit", ["update_link", "set_link_properties"])
    def test_editing_a_copy_leaves_the_original_alone(self, edit,
                                                       empty_memo):
        topology = figure1_topology()
        links = list(topology.links())
        sign = topology_signature(topology)
        oracle = eager_table(topology)
        collapsed = collapse(topology)
        clone = topology.copy()
        for link in links:
            if edit == "update_link":
                clone.update_link(link.source, link.destination,
                                  latency=0.5, bandwidth=1e3)
            else:
                clone.set_link_properties(
                    link.source, link.destination,
                    LinkProperties(latency=0.5, bandwidth=1e3))
        assert all(clone.get_link(*link.key).link_id == link.link_id
                   and clone.get_link(*link.key) != link for link in links)
        assert all(now is link for now, link in zip(topology.links(), links))
        assert topology_signature(topology) == sign \
            != topology_signature(clone)
        assert collapsed.paths() == list(oracle.values())
        assert collapse(topology).paths() == list(oracle.values())
        assert_matches_oracle(collapse(clone), clone)

    def test_every_plan_state_signs_as_if_built_from_scratch(self,
                                                             empty_memo):
        """Every state shares the link values its events left alone, and
        with them their formatted fragments: each must sign as the same
        topology whose every link is new."""
        from repro.core.dynamic import DynamicTopologyPlan
        from repro.topology import DynamicEvent, EventAction, EventSchedule
        flap = LinkProperties(latency=0.007, bandwidth=20e6)
        schedule = EventSchedule([
            DynamicEvent(1.0, EventAction.SET_LINK, "s1", "s2",
                         changes={"latency": 0.04}),
            DynamicEvent(2.0, EventAction.SET_LINK, "c1", "s1",
                         changes={"bandwidth": 5e6}, bidirectional=False),
            DynamicEvent(3.0, EventAction.LEAVE_LINK, "sv", "s2"),
            DynamicEvent(4.0, EventAction.JOIN_LINK, "sv", "s2",
                         properties=flap),
            DynamicEvent(5.0, EventAction.LEAVE_NODE, name="c1"),
            DynamicEvent(6.0, EventAction.JOIN_NODE, name="c1"),
            DynamicEvent(6.0, EventAction.JOIN_LINK, "c1", "s1",
                         properties=flap),
            DynamicEvent(7.0, EventAction.SET_LINK, "s1", "s2",
                         properties=flap),
        ])
        plan = DynamicTopologyPlan(figure1_topology(), schedule)
        assert len(plan) == 8
        signs = [topology_signature(state.topology) for state in plan.states]
        assert len(set(signs)) == len(signs)
        for state, sign in zip(plan.states, signs):
            assert topology_signature(_fresh(state.topology)) == sign


# ---------------------------------------------------------------------------
# Trees inherited across a pure latency rise are the Dijkstra's.
# ---------------------------------------------------------------------------

def assert_inherits_exactly(topology, latencies):
    """Collapse ``topology`` and build every tree, then collapse a copy
    with ``latencies`` (``{link: new latency}``) applied.  Each tree of
    the copy must equal a fresh ``_dijkstra``, and be the first
    topology's own tree exactly when no latency fell and no risen link is
    on it.  Returns how many trees were inherited and how many rebuilt."""
    clear_collapse_cache()
    parent = collapse(topology)._routing
    services = sorted(topology.services)
    for service in services:
        parent.tree(service)
    changed = topology.copy()
    for link, latency in latencies.items():
        changed.update_link(link.source, link.destination, latency=latency)
    child = collapse(changed)._routing
    graph = _service_graph(changed)
    fell = any(latency < link.properties.latency
               for link, latency in latencies.items())
    risen = [link for link, latency in latencies.items()
             if latency > link.properties.latency]
    inherited = rebuilt = 0
    for service in services:
        tree = child.tree(service)
        assert tree == _dijkstra(graph, service)
        kept = parent.trees[service]
        expected = child is parent or not fell and not any(
            kept.get(link.destination) is link for link in risen)
        assert (tree is kept) == expected, (service, latencies)
        if child is not parent:
            inherited += expected
            rebuilt += not expected
    return inherited, rebuilt


def _tie_heavy_shape(name):
    from repro.scenario import topologies
    builder = {
        "dumbbell": lambda: topologies.dumbbell(3),
        "tree": lambda: topologies.tree(3, 2),
        "aws_mesh": lambda: topologies.aws_mesh(
            ["virginia", "oregon", "ireland", "saopaulo", "sydney"], 2),
        "fat_tree": lambda: topologies.fat_tree(4),
    }[name]()
    return builder.compile().topology


class TestTreeInheritance:
    @pytest.mark.parametrize("name", ["dumbbell", "tree", "aws_mesh",
                                      "fat_tree"])
    def test_uniform_latency_shapes(self, name, empty_memo):
        """Rises on and off every tree, ties everywhere, and a decrease,
        which must always fall back to Dijkstra."""
        topology = _tie_heavy_shape(name)
        links = sorted(topology.links(), key=lambda link: link.link_id)
        totals = [0, 0]
        for link in links[::3]:
            for rise in (link.properties.latency, 1e-3, 1e-12):
                counts = assert_inherits_exactly(
                    topology, {link: link.properties.latency + rise})
                totals = [total + count
                          for total, count in zip(totals, counts)]
        assert totals[0] > 0 and totals[1] > 0, totals
        fallen = next(link for link in links if link.properties.latency)
        assert assert_inherits_exactly(
            topology, {fallen: fallen.properties.latency / 2})[0] == 0

    @settings(max_examples=60, deadline=None)
    @given(topology=routed_topologies(), data=st.data())
    def test_generated_graphs(self, topology, data):
        links = sorted(topology.links(), key=lambda link: link.link_id)
        chosen = data.draw(st.lists(st.sampled_from(links), min_size=1,
                                    max_size=3, unique=True))
        try:
            latencies = {link: link.properties.latency
                         + data.draw(st.sampled_from([0.001, 0.002, 1e-9]))
                         for link in chosen}
            if data.draw(st.booleans()):
                latencies[chosen[0]] = chosen[0].properties.latency / 2
            assert_inherits_exactly(topology, latencies)
        finally:
            clear_collapse_cache()


# ---------------------------------------------------------------------------
# Names only break ties: relabelling services and bridges.
# ---------------------------------------------------------------------------

@st.composite
def named_shapes(draw):
    """A small scale-free, fat-tree or AWS-mesh topology."""
    from repro.scenario import topologies
    shape = draw(st.sampled_from(["scale_free", "fat_tree", "aws_mesh"]))
    if shape == "scale_free":
        builder = topologies.scale_free(draw(st.integers(9, 36)),
                                        seed=draw(st.integers(0, 50)))
    elif shape == "fat_tree":
        builder = topologies.fat_tree(draw(st.sampled_from([2, 4])))
    else:
        regions = draw(st.lists(
            st.sampled_from(["virginia", "oregon", "ireland", "saopaulo",
                             "sydney"]),
            min_size=2, max_size=4, unique=True))
        builder = topologies.aws_mesh(regions, draw(st.integers(1, 2)))
    return builder.compile().topology


def relabelled(topology, rename):
    """``topology`` with every service and bridge renamed by ``rename``;
    each link keeps its id and properties."""
    twin = Topology(topology.name)
    for name, service in topology.services.items():
        twin.services[rename[name]] = dataclasses.replace(
            service, name=rename[name])
    twin.bridges = {rename[name]: Bridge(rename[name])
                    for name in topology.bridges}
    twin._links = {
        (rename[link.source], rename[link.destination]): dataclasses.replace(
            link, source=rename[link.source],
            destination=rename[link.destination])
        for link in topology.links()}
    return twin


def container_rename(rename):
    """Container -> container under the service renaming ``rename``."""
    def renamed(container):
        service, dot, replica = container.partition(".")
        return rename[service] + dot + replica
    return renamed


def relabelled_tables(topology, labels):
    """The cold tables of ``topology`` and of its relabelling that gives
    the ``i``-th node in name order the ``i``-th of ``labels``."""
    rename = dict(zip(sorted(topology.node_names()), labels))
    twin = relabelled(topology, rename)
    return (rename, collapse(topology, memo=False),
            collapse(twin, memo=False))


class TestRelabelling:
    @settings(max_examples=12, deadline=None)
    @given(topology=named_shapes(), data=st.data())
    def test_any_relabelling_keeps_latency_and_hops(self, topology, data):
        nodes = len(topology.node_names())
        order = data.draw(st.permutations(range(nodes)))
        rename, table, twin = relabelled_tables(
            topology, [f"n{index}" for index in order])
        renamed = container_rename(rename)
        assert twin.pair_count() == table.pair_count()
        for source in topology.container_names():
            for destination in topology.container_names():
                path = table.path(source, destination)
                other = twin.path(renamed(source), renamed(destination))
                if path is None:
                    assert other is None
                else:
                    assert (other.latency, other.properties.hops) == \
                        (path.latency, path.properties.hops)

    @settings(max_examples=12, deadline=None)
    @given(topology=named_shapes(), data=st.data())
    def test_an_order_preserving_relabelling_keeps_every_path(self, topology,
                                                              data):
        """The tie-break is the lexicographic order of the names, and
        nothing else about them: keep the order, keep the paths."""
        nodes = len(topology.node_names())
        labels = sorted(data.draw(st.sets(st.integers(0, 10 * nodes),
                                          min_size=nodes, max_size=nodes)))
        rename, table, twin = relabelled_tables(
            topology, [f"n{label:04d}" for label in labels])
        renamed = container_rename(rename)
        assert twin.pair_count() == table.pair_count()
        for path in table.paths():
            other = twin.require_path(renamed(path.source),
                                      renamed(path.destination))
            assert other.link_ids == path.link_ids
            assert other.node_path == (renamed(path.source),) + tuple(
                rename[node] for node in path.node_path[1:-1]) + (
                    renamed(path.destination),)
            assert other.properties == path.properties
