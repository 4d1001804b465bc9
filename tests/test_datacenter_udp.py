"""Tests for the data-center generators and the packet-level UDP blaster."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps import UdpBlaster
from repro.core import EmulationEngine, EngineConfig, collapse
from repro.scenario.topologies import (
    fat_tree,
    jellyfish,
    point_to_point,
)

MBPS = 1e6


class TestFatTree:
    def test_k4_shape(self):
        topology = fat_tree(4).compile().topology
        # k=4: 4 cores, 4 pods x (2 agg + 2 edge), 16 hosts.
        assert len(topology.bridges) == 4 + 4 * 4
        assert len(topology.services) == 16
        # Each edge switch: 2 uplinks + 2 hosts; each agg: 2 up + 2 down.
        topology.validate()

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
            config=EngineConfig(machines=4, seed=6,
                                enforce_physical_limits=False))
        engine.start_flow("f", "h0", "h15")
        engine.run(until=2.0)
        assert engine.fluid.mean_throughput("f", 1.0, 2.0) == \
            pytest.approx(1e9, rel=0.10)


class TestJellyfish:
    def test_degree_bound_respected(self):
        topology = jellyfish(12, 4, seed=3).compile().topology
        switch_degree = {name: 0 for name in topology.bridges}
        for link in topology.links():
            for end in (link.source, link.destination):
                if end in switch_degree and \
                        (link.source in switch_degree
                         and link.destination in switch_degree):
                    switch_degree[end] += 1
        # Each undirected switch-switch edge counts twice per endpoint
        # (two unidirectional links), so the bound is 2 * degree.
        assert all(count <= 2 * 4 for count in switch_degree.values())

    def test_hosts_attached(self):
        topology = jellyfish(10, 3, hosts_per_switch=2,
                             seed=1).compile().topology
        assert len(topology.services) == 20

    def test_deterministic_for_seed(self):
        first = jellyfish(12, 4, seed=9).compile().topology
        second = jellyfish(12, 4, seed=9).compile().topology
        assert sorted(link.key for link in first.links()) == \
            sorted(link.key for link in second.links())

    def test_different_seeds_differ(self):
        first = jellyfish(16, 4, seed=1).compile().topology
        second = jellyfish(16, 4, seed=2).compile().topology
        assert sorted(link.key for link in first.links()) != \
            sorted(link.key for link in second.links())

    def test_connected_enough(self):
        collapsed = collapse(jellyfish(12, 4, seed=5).compile().topology)
        reachable = sum(1 for path in collapsed.paths())
        # 12 hosts: nearly all ordered pairs reachable.
        assert reachable >= 12 * 11 * 0.9

    @given(st.integers(6, 16), st.integers(2, 4), st.integers(0, 5))
    @settings(max_examples=15, deadline=None)
    def test_never_exceeds_ports(self, switches, degree, seed):
        if switches <= degree:
            return
        topology = jellyfish(switches, degree, seed=seed).compile().topology
        counts = {name: 0 for name in topology.bridges}
        for link in topology.links():
            if link.source in counts and link.destination in counts:
                counts[link.source] += 1
        assert all(count <= degree for count in counts.values())

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            jellyfish(3, 4)
        with pytest.raises(ValueError):
            jellyfish(10, 1)


class TestUdpBlaster:
    def make_engine(self, bandwidth=10 * MBPS, loss=0.0):
        return EmulationEngine(
            point_to_point(bandwidth, latency=0.010,
                           loss=loss).compile().topology,
            config=EngineConfig(machines=1, seed=8,
                                enforce_bandwidth_sharing=False))

    def test_delivers_at_configured_rate(self):
        engine = self.make_engine()
        blaster = UdpBlaster(engine.sim, engine.dataplane, "client",
                             "server", rate=2 * MBPS)
        engine.run(until=10.0)
        assert blaster.stats.delivery_rate(10.0) == \
            pytest.approx(2 * MBPS, rel=0.05)
        assert blaster.stats.loss_rate == 0.0

    def test_oversubscription_is_dropped_not_slowed(self):
        # Offering 4x the link: the sender never backs off; the excess is
        # refused/dropped and delivery caps at the wire.
        engine = self.make_engine(bandwidth=5 * MBPS)
        blaster = UdpBlaster(engine.sim, engine.dataplane, "client",
                             "server", rate=20 * MBPS)
        engine.run(until=10.0)
        assert blaster.stats.delivery_rate(10.0) <= 5 * MBPS * 1.05
        assert blaster.stats.loss_rate > 0.5
        assert blaster.stats.blocked > 0

    def test_link_loss_visible(self):
        engine = self.make_engine(loss=0.2)
        blaster = UdpBlaster(engine.sim, engine.dataplane, "client",
                             "server", rate=1 * MBPS)
        engine.run(until=20.0)
        assert blaster.stats.loss_rate == pytest.approx(0.2, abs=0.05)

    def test_one_way_delay_measured(self):
        engine = self.make_engine()
        blaster = UdpBlaster(engine.sim, engine.dataplane, "client",
                             "server", rate=1 * MBPS)
        engine.run(until=5.0)
        assert blaster.stats.mean_delay == pytest.approx(0.010, rel=0.2)

    def test_stop_time_respected(self):
        engine = self.make_engine()
        blaster = UdpBlaster(engine.sim, engine.dataplane, "client",
                             "server", rate=1 * MBPS, stop=2.0)
        engine.run(until=10.0)
        sent_after = blaster.stats.sent
        assert sent_after == pytest.approx(2.0 * 1e6 / (1400 * 8), rel=0.05)

    def test_bad_rate_rejected(self):
        engine = self.make_engine()
        with pytest.raises(ValueError):
            UdpBlaster(engine.sim, engine.dataplane, "client", "server",
                       rate=0.0)

    def test_type_error_in_a_callback_propagates_and_sends_once(self):
        """A ``TypeError`` raised under ``plane.send`` is the callback's
        bug: it is not a cue to send the datagram a second time."""
        engine = self.make_engine(loss=1.0)
        blaster = UdpBlaster(engine.sim, engine.dataplane, "client",
                             "server", rate=1 * MBPS)
        raised = []

        def broken_once(_datagram):
            if not raised:
                raised.append(True)
                raise TypeError("callback bug")

        blaster._on_dropped = broken_once
        with pytest.raises(TypeError, match="callback bug"):
            engine.run(until=0.001)
        assert blaster.stats.sent == 1
        assert engine.dataplane.packets_dropped == 1
