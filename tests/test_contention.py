"""Tests for congestion-gated enforcement and cross-plane contention.

Covers the behaviours behind Figures 6 and 7:

* the Emulation Manager only divides bandwidth between flows competing
  for a saturated link (uncontended paths keep the collapsed maximum);
* link contention has hysteresis, so enforcement does not flap on
  sampling wobble;
* idle chains are restored to their path properties;
* in the ground-truth systems the packet and fluid planes share the
  physical wires.
"""

import pytest

from repro.apps import CurlSwarm, HttpServer, Pinger
from repro.baselines import BareMetalTestbed, baremetal
from repro.core import EmulationEngine, EngineConfig
from repro.netstack.fullnet import FullStateNetwork
from repro.netstack.packet import Packet
from repro.scenario import Scenario
from repro.scenario.topologies import dumbbell, point_to_point, star
from repro.sim import Process

MBPS = 1e6


def engine_for(topology, *, machines=2, seed=7):
    return EmulationEngine(topology, config=EngineConfig(
        machines=machines, seed=seed))


class TestCongestionGating:
    def test_single_flow_keeps_path_maximum(self):
        engine = engine_for(point_to_point(100 * MBPS).compile().topology)
        engine.start_flow("only", "client", "server")
        engine.run(until=5.0)
        htb = engine.tcals["client"].shaping_for("server").htb.rate
        assert htb == pytest.approx(100 * MBPS, rel=0.01)
        assert engine.fluid.mean_throughput("only", 2.0, 5.0) == \
            pytest.approx(100 * MBPS, rel=0.05)

    def test_competing_flows_get_shares(self):
        engine = engine_for(
            dumbbell(2, shared_bandwidth=50 * MBPS).compile().topology)
        engine.start_flow("a", "client0", "server0")
        engine.start_flow("b", "client1", "server1")
        engine.run(until=6.0)
        rates = [engine.tcals["client0"].shaping_for("server0").htb.rate,
                 engine.tcals["client1"].shaping_for("server1").htb.rate]
        assert sum(rates) == pytest.approx(50 * MBPS, rel=0.10)

    def test_enforcement_stable_at_capacity(self):
        # Flows sitting exactly at their shares must not see the gate
        # flap open (which would burst and then crash them with loss).
        engine = engine_for(
            dumbbell(2, shared_bandwidth=50 * MBPS).compile().topology)
        engine.start_flow("a", "client0", "server0")
        engine.start_flow("b", "client1", "server1")
        engine.run(until=4.0)
        samples = []
        for step in range(40):
            engine.run(until=4.0 + step * 0.1)
            samples.append(engine.fluid.throughput("a"))
        mean = sum(samples) / len(samples)
        assert mean == pytest.approx(25 * MBPS, rel=0.10)
        assert max(samples) - min(samples) < 8 * MBPS

    def test_release_after_departure(self):
        engine = engine_for(
            dumbbell(2, shared_bandwidth=50 * MBPS).compile().topology)
        engine.start_flow("a", "client0", "server0")
        engine.start_flow("b", "client1", "server1")
        engine.run(until=5.0)
        engine.stop_flow("b")
        engine.run(until=10.0)
        # The survivor is unthrottled back to the bottleneck capacity.
        assert engine.fluid.mean_throughput("a", 8.0, 10.0) == \
            pytest.approx(50 * MBPS, rel=0.10)

    def test_idle_chain_restored_to_path_properties(self):
        engine = engine_for(point_to_point(100 * MBPS).compile().topology)
        engine.start_flow("burst", "client", "server",
                          size_bits=20e6)  # finishes quickly
        engine.run(until=10.0)
        shaping = engine.tcals["client"].shaping_for("server")
        assert shaping.htb.rate == pytest.approx(100 * MBPS, rel=0.01)
        assert shaping.netem.loss == 0.0

    def test_bursty_http_not_strangled(self):
        # The Figure 6 regression: connection-per-request HTTP through a
        # sharing-enabled engine must match the unthrottled engine.
        def throughput(sharing):
            topology = star(["server", "c0"], bandwidth=100 * MBPS,
                            latency=0.005).compile().topology
            engine = EmulationEngine(topology, config=EngineConfig(
                machines=2, seed=71, enforce_bandwidth_sharing=sharing))
            server = HttpServer(engine.sim, engine.dataplane, "server")
            swarm = CurlSwarm(engine.sim, engine.dataplane, ["c0"], server)
            engine.run(until=10.0)
            return swarm.stats.bits_per_s(10.0)

        assert throughput(True) == pytest.approx(throughput(False),
                                                 rel=0.05)


class TestContentionHysteresis:
    """Each call is one loop period's usage; it answers whether the
    contention state moved, which voids the loop's fixed point."""

    def make_manager(self):
        engine = engine_for(point_to_point(100 * MBPS).compile().topology,
                            machines=1)
        manager = next(iter(engine.managers.values()))
        link_id = next(iter(manager.capacities))
        return manager, link_id, manager.capacities[link_id]

    def test_enters_above_threshold(self):
        manager, link_id, capacity = self.make_manager()
        assert manager._update_contention({link_id: capacity})
        assert link_id in manager._link_contended
        assert not manager._update_contention({link_id: 0.95 * capacity})
        assert link_id in manager._link_contended

    def test_stays_until_quiet_long_enough(self):
        manager, link_id, capacity = self.make_manager()
        manager._update_contention({link_id: capacity})
        for _ in range(manager._CONTENTION_QUIET_LOOPS - 1):
            # Each quiet loop counts toward the release: state moved.
            assert manager._update_contention({link_id: 0.5 * capacity})
            assert link_id in manager._link_contended
        assert manager._update_contention({link_id: 0.5 * capacity})
        assert link_id not in manager._link_contended
        assert not manager._update_contention({link_id: 0.5 * capacity})

    def test_mid_band_usage_keeps_contention(self):
        manager, link_id, capacity = self.make_manager()
        manager._update_contention({link_id: capacity})
        # Usage between EXIT and ENTER: stays contended indefinitely.
        for _ in range(20):
            assert not manager._update_contention({link_id: 0.85 * capacity})
            assert link_id in manager._link_contended

    def test_quiet_streak_resets_on_activity(self):
        manager, link_id, capacity = self.make_manager()
        manager._update_contention({link_id: capacity})
        for _ in range(manager._CONTENTION_QUIET_LOOPS - 1):
            manager._update_contention({link_id: 0.5 * capacity})
        # The reset is a move too.
        assert manager._update_contention({link_id: 0.85 * capacity})
        for _ in range(manager._CONTENTION_QUIET_LOOPS - 1):
            manager._update_contention({link_id: 0.5 * capacity})
            assert link_id in manager._link_contended


class TestCrossPlaneContention:
    def test_bulk_flow_yields_to_packet_traffic(self):
        testbed = BareMetalTestbed(
            star(["a", "b", "c"], bandwidth=100 * MBPS,
                 latency=0.001).compile().topology, seed=3)
        testbed.start_flow("bulk", "a", "c")
        server = HttpServer(testbed.sim, testbed.dataplane, "a",
                            response_bits=512e3)
        client = CurlSwarm(testbed.sim, testbed.dataplane, ["b"], server)
        testbed.run(until=10.0)
        bulk = testbed.fluid.mean_throughput("bulk", 5.0, 10.0)
        http = client.stats.bits_per_s(10.0)
        # Both aggregates share a's 100 Mb/s uplink.
        assert bulk < 95 * MBPS
        assert bulk + http < 110 * MBPS
        assert http > 5 * MBPS

    def test_fluid_load_slows_packets(self):
        def rtt(with_bulk):
            testbed = BareMetalTestbed(
                point_to_point(10 * MBPS, latency=0.010).compile().topology,
                seed=3)
            if with_bulk:
                testbed.start_flow("bulk", "client", "server")
            pinger = Pinger(testbed.sim, testbed.dataplane, "client",
                            "server", count=50, interval=0.05,
                            size_bits=1500 * 8).start(at=2.0)
            testbed.run(until=6.0)
            return pinger.stats.median_rtt

        # With a bulk flow occupying the wire, the effective packet rate
        # halves, so serialization takes visibly longer.
        assert rtt(True) > rtt(False)

    def test_packet_rate_monitor_reports_traffic(self):
        testbed = BareMetalTestbed(
            point_to_point(100 * MBPS, latency=0.001).compile().topology,
            seed=3)
        server = HttpServer(testbed.sim, testbed.dataplane, "server")
        CurlSwarm(testbed.sim, testbed.dataplane, ["client"], server)
        testbed.run(until=5.0)
        rates = [testbed.network.packet_rates.get(link.link_id, 0.0)
                 for link in testbed.topology.links()]
        assert max(rates) > 1 * MBPS


class WalkingNetwork(FullStateNetwork):
    """The usage monitor as it was: every link, every sample, zero rates
    kept in the table (so the ground truth always derives capacities)."""

    def start_usage_monitor(self, period=0.05, alpha=0.5):
        if self._monitor is not None:
            return

        def sample():
            for link_id, link in self._links.items():
                previous = self._monitor_baseline.get(link_id, 0.0)
                delta = link.bits_sent - previous
                self._monitor_baseline[link_id] = link.bits_sent
                rate = max(delta, 0.0) / period
                self.packet_rates[link_id] = (
                    alpha * rate
                    + (1.0 - alpha) * self.packet_rates.get(link_id, 0.0))

        self._monitor = Process(self.sim, period, sample,
                                name="packet-usage-monitor", priority=9)


def shared_and_lossy(walking: bool, monkeypatch):
    """A bulk flow shares ``a``'s uplink with echo traffic that stops at
    2 s; a second echo crosses a lossy link.  After every monitor sample:
    each link's packet rate, and the capacity each active link gets."""
    topology = (Scenario.build("shared").bridge("hub")
                .service("a").service("b").service("c").service("d")
                .link("a", "hub", latency=0.002, up=100 * MBPS)
                .link("b", "hub", latency=0.002, up=100 * MBPS)
                .link("c", "hub", latency=0.002, up=100 * MBPS)
                .link("d", "hub", latency=0.002, up=100 * MBPS, loss=0.05)
                .compile().topology)
    with monkeypatch.context() as patch:
        if walking:
            patch.setattr(baremetal, "FullStateNetwork", WalkingNetwork)
        testbed = BareMetalTestbed(topology, seed=7)
    assert (type(testbed.network) is WalkingNetwork) == walking
    testbed.start_flow("bulk", "a", "b")
    Pinger(testbed.sim, testbed.dataplane, "a", "c", count=1800,
           interval=0.001, size_bits=12000.0).start(at=0.2)
    Pinger(testbed.sim, testbed.dataplane, "c", "d", count=200,
           interval=0.01, size_bits=12000.0).start(at=0.5)
    links = [link.link_id for link in topology.links()]
    seen = []

    def observe():
        capacities = testbed.constraints.capacities(testbed.fluid._active)
        seen.append((
            [testbed.network.packet_rates.get(link_id, 0.0)
             for link_id in links],
            [capacities[link_id] for entry in testbed.fluid._active
             for link_id in entry.links],
            len(testbed.network.packet_rates)))

    # Made after the monitor, with its period and priority: each
    # observation follows one sample.
    Process(testbed.sim, 0.05, observe, priority=9)
    testbed.run(until=60.0)
    return seen, list(testbed.fluid.series("bulk"))


class TestUsageMonitor:
    def test_skipping_idle_wires_is_walking_every_wire(self, monkeypatch):
        skipping, bulk = shared_and_lossy(False, monkeypatch)
        walking, walked_bulk = shared_and_lossy(True, monkeypatch)
        assert len(skipping) == len(walking) > 1000
        for index, (seen, reference) in enumerate(zip(skipping, walking)):
            assert seen[:2] == reference[:2], f"sample {index}"
        assert bulk == walked_bulk
        # The echoes really loaded the wires, and once every rate decayed
        # to 0.0 the table was empty, where the walk kept a zero per link.
        assert max(max(rates) for rates, _caps, _size in skipping) > MBPS
        assert min(size for _rates, _caps, size in walking) == 8
        assert skipping[0][2] == 0 and skipping[-1][2] == 0
        assert max(size for _rates, _caps, size in skipping) > 0


class TestPingStatistics:
    def test_first_sample_excluded(self):
        from repro.apps.ping import PingStats
        stats = PingStats(rtts=[1.0, 0.1, 0.1, 0.1])
        assert stats.mean_rtt == pytest.approx(0.1)
        assert stats.median_rtt == pytest.approx(0.1)
        assert stats.jitter == 0.0

    def test_single_sample_used_as_is(self):
        from repro.apps.ping import PingStats
        stats = PingStats(rtts=[0.5])
        assert stats.mean_rtt == 0.5
        assert stats.median_rtt == 0.5
