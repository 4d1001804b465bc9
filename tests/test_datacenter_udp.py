"""Tests for the fat-tree data-center generator."""

import pytest

from repro.core import EmulationEngine, EngineConfig, collapse
from repro.scenario.topologies import fat_tree


class TestFatTree:
    def test_k4_shape(self):
        topology = fat_tree(4).compile().topology
        # k=4: 4 cores, 4 pods x (2 agg + 2 edge), 16 hosts.
        assert len(topology.bridges) == 4 + 4 * 4
        assert len(topology.services) == 16
        # Each edge switch: 2 uplinks + 2 hosts; each agg: 2 up + 2 down;
        # each core: one link into every pod.
        assert {sum(link.source == name
                 for link in topology.links())
                for name in topology.bridges} == {4}
        assert len(list(topology.links())) == 2 * 4 * (4 + 4 + 4)

    def test_every_host_pair_reachable(self):
        collapsed = collapse(fat_tree(4).compile().topology)
        hosts = [f"h{i}" for i in range(16)]
        assert collapsed.path(hosts[0], hosts[15]) is not None
        assert collapsed.path(hosts[3], hosts[4]) is not None

    def test_path_hop_structure(self):
        collapsed = collapse(fat_tree(4, latency=25e-6).compile().topology)
        # Same edge switch: host-edge-host = 2 links.
        same_edge = collapsed.path("h0", "h1")
        assert same_edge.properties.latency == pytest.approx(50e-6)
        # Different pods: host-edge-agg-core-agg-edge-host = 6 links.
        cross_pod = collapsed.path("h0", "h15")
        assert cross_pod.properties.latency == pytest.approx(150e-6)

    def test_thinned_host_layer(self):
        topology = fat_tree(4, hosts_per_edge=1).compile().topology
        assert len(topology.services) == 8

    @pytest.mark.parametrize("bad", [0, 3, 5, -2])
    def test_odd_arity_rejected(self, bad):
        with pytest.raises(ValueError):
            fat_tree(bad)

    def test_bad_hosts_per_edge(self):
        with pytest.raises(ValueError):
            fat_tree(4, hosts_per_edge=3)

    def test_runs_under_emulation(self):
        engine = EmulationEngine(
            fat_tree(4, bandwidth=1e9).compile().topology,
            config=EngineConfig(machines=4, seed=6))
        engine.start_flow("f", "h0", "h15")
        engine.run(until=2.0)
        assert engine.fluid.mean_throughput("f", 1.0, 2.0) == \
            pytest.approx(1e9, rel=0.10)
