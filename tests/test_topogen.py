"""Topology generators: shapes, sizes, determinism, embedded AWS data."""

import pytest

from repro.core import collapse
from repro.scenario.topologies import (
    AWS_REGION_LATENCY_FROM_US_EAST_1,
    aws_mesh,
    aws_star,
    dumbbell,
    point_to_point,
    scale_free,
    star,
    throttling,
    region_rtt,
    tree,
)


class TestSimpleShapes:
    def test_point_to_point_collapses_to_rate(self):
        topology = point_to_point(10e6, latency=0.010).compile().topology
        collapsed = collapse(topology)
        path = collapsed.require_path("client", "server")
        assert path.bandwidth == 10e6
        assert path.latency == pytest.approx(0.010)

    def test_dumbbell_shares_one_link(self):
        topology = dumbbell(3, shared_bandwidth=50e6).compile().topology
        collapsed = collapse(topology)
        shared_ids = None
        for index in range(3):
            path = collapsed.require_path(f"client{index}", f"server{index}")
            middle = set(path.link_ids) - {path.link_ids[0],
                                           path.link_ids[-1]}
            shared_ids = middle if shared_ids is None else shared_ids & middle
        assert shared_ids  # every pair crosses the same shared link

    def test_dumbbell_size_validation(self):
        with pytest.raises(ValueError):
            dumbbell(0)

    def test_star_all_pairs_two_hops(self):
        topology = star(["a", "b", "c"]).compile().topology
        collapsed = collapse(topology)
        assert collapsed.require_path("a", "b").properties.hops == 2

    def test_tree_leaf_count(self):
        topology = tree(depth=2, fanout=3).compile().topology
        assert len(topology.container_names()) == 9
        assert len(topology.bridges) == 4  # root + 3 level-1

    def test_tree_depth_validation(self):
        with pytest.raises(ValueError):
            tree(0, 2)


class TestScaleFree:
    def test_element_count(self):
        topology = scale_free(300, seed=1).compile().topology
        elements = len(topology.container_names()) + len(topology.bridges)
        assert elements == 300
        # Paper's ratio: about a third of the elements are switches.
        assert len(topology.bridges) == pytest.approx(100, abs=2)

    def test_deterministic_for_seed(self):
        first = scale_free(100, seed=7).compile().topology
        second = scale_free(100, seed=7).compile().topology
        assert first.describe() == second.describe()
        assert scale_free(100, seed=8).compile().topology.describe() != \
            first.describe()

    def test_all_nodes_connected(self):
        topology = scale_free(200, seed=3).compile().topology
        collapsed = collapse(topology)
        containers = topology.container_names()
        assert collapsed.pair_count() == \
            len(containers) * (len(containers) - 1)

    def test_degree_distribution_skewed(self):
        """Preferential attachment: a hub switch with many more links."""
        topology = scale_free(400, seed=5).compile().topology
        degree = {}
        for link in topology.links():
            degree[link.source] = degree.get(link.source, 0) + 1
        switch_degrees = sorted(
            (degree.get(name, 0) for name in topology.bridges),
            reverse=True)
        assert switch_degrees[0] > 4 * switch_degrees[len(switch_degrees) // 2]

    def test_minimum_size(self):
        with pytest.raises(ValueError):
            scale_free(3)


class TestAwsTopologies:
    def test_star_carries_table3_latencies(self):
        topology = aws_star().compile().topology
        collapsed = collapse(topology)
        for region, (latency_ms, jitter_ms) in \
                AWS_REGION_LATENCY_FROM_US_EAST_1.items():
            path = collapsed.require_path("probe", f"target-{region}")
            # The probe's 0.1 ms access hop rides on top of the region link.
            assert path.latency == pytest.approx(
                latency_ms / 1000.0 + 0.0001, rel=0.001)
            assert path.properties.jitter == pytest.approx(
                jitter_ms / 1000.0, rel=0.01)

    def test_star_reverse_path_jitter_free_by_default(self):
        collapsed = collapse(aws_star().compile().topology)
        back = collapsed.require_path("target-eu-west-1", "probe")
        assert back.properties.jitter == 0.0

    def test_mesh_rtts(self):
        topology = aws_mesh(["frankfurt", "sydney"], 2,
                            service_prefix="n").compile().topology
        collapsed = collapse(topology)
        rtt = collapsed.rtt("n-frankfurt-0", "n-sydney-0")
        assert rtt == pytest.approx(0.290 + 0.002, rel=0.02)

    def test_mesh_rtt_scale(self):
        half = aws_mesh(["frankfurt", "sydney"], 1, service_prefix="n",
                        rtt_scale=0.5).compile().topology
        collapsed = collapse(half)
        assert collapsed.rtt("n-frankfurt-0", "n-sydney-0") == \
            pytest.approx(0.145 + 0.002, rel=0.02)

    def test_region_rtt_symmetric_lookup(self):
        assert region_rtt("sydney", "frankfurt") == \
            region_rtt("frankfurt", "sydney")
        with pytest.raises(KeyError):
            region_rtt("frankfurt", "atlantis")

    def test_intra_region_rtt_small(self):
        assert region_rtt("sydney", "sydney") < 0.005


class TestSection54:
    def test_shape(self):
        topology = throttling().compile().topology
        assert len(topology.services) == 12
        assert len(topology.bridges) == 3

    def test_client_access_profiles(self):
        topology = throttling().compile().topology
        assert topology.get_link("c1", "b1").properties.bandwidth == 50e6
        assert topology.get_link("c1", "b1").properties.latency == 0.010
        assert topology.get_link("c3", "b1").properties.bandwidth == 10e6
        assert topology.get_link("c6", "b2").properties.bandwidth == 10e6

    def test_paper_rtts(self):
        """RTTs that drive the share model: 70/60/60/50/40/40 ms."""
        collapsed = collapse(throttling().compile().topology)
        expected = {"c1": 0.070, "c2": 0.060, "c3": 0.060,
                    "c4": 0.050, "c5": 0.040, "c6": 0.040}
        for client, rtt in expected.items():
            index = client[1]
            assert collapsed.rtt(client, f"s{index}") == \
                pytest.approx(rtt, rel=0.001), client

    def test_bottleneck_capacities(self):
        topology = throttling().compile().topology
        assert topology.get_link("b1", "b2").properties.bandwidth == 50e6
        assert topology.get_link("b2", "b3").properties.bandwidth == 100e6
