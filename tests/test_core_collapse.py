"""Network collapsing: shortest paths, determinism, restricted sources."""

import pytest

from repro.core import collapse
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
        """Each EM only collapses paths from its local containers (§3)."""
        collapsed = collapse(figure1_topology(), sources=["c1"])
        assert collapsed.path("c1", "sv.0") is not None
        assert collapsed.path("sv.0", "c1") is None

    def test_restricted_matches_full(self):
        full = collapse(figure1_topology())
        restricted = collapse(figure1_topology(), sources=["c1"])
        full_path = full.require_path("c1", "sv.0")
        restricted_path = restricted.require_path("c1", "sv.0")
        assert full_path.link_ids == restricted_path.link_ids
        assert full_path.properties == restricted_path.properties


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
