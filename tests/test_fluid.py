"""Fluid engine: AIMD dynamics, allocation, Reno vs Cubic, UDP."""

import pytest

from repro.netstack.fluid import (
    FluidEngine,
    FluidFlow,
    GroundTruthConstraints,
)
from repro.sim import RngRegistry, Simulator
from repro.scenario.topologies import dumbbell, point_to_point


def run_single_flow(bandwidth, *, cc="cubic", duration=20.0, latency=0.020,
                    demand=float("inf"), protocol="tcp"):
    sim = Simulator()
    topology = point_to_point(bandwidth, latency=latency).compile().topology
    engine = FluidEngine(sim, GroundTruthConstraints(topology),
                         rng=RngRegistry(3))
    engine.add_flow(FluidFlow("f", "client", "server",
                              congestion_control=cc, demand=demand,
                              protocol=protocol))
    sim.run(until=duration)
    return engine


class TestSingleFlow:
    @pytest.mark.parametrize("bandwidth", [1e6, 50e6, 1e9])
    def test_saturating_tcp_fills_link(self, bandwidth):
        engine = run_single_flow(bandwidth)
        mean = engine.mean_throughput("f", 5.0, 20.0)
        assert mean == pytest.approx(bandwidth, rel=0.05)

    def test_reno_also_fills_link(self):
        engine = run_single_flow(50e6, cc="reno")
        assert engine.mean_throughput("f", 5.0, 20.0) == \
            pytest.approx(50e6, rel=0.05)

    def test_demand_limited_flow_stays_at_demand(self):
        engine = run_single_flow(100e6, demand=10e6)
        assert engine.mean_throughput("f", 5.0, 20.0) == \
            pytest.approx(10e6, rel=0.02)

    def test_udp_oversubscription_clipped_to_capacity(self):
        engine = run_single_flow(10e6, protocol="udp", demand=20e6)
        assert engine.mean_throughput("f", 2.0, 20.0) == \
            pytest.approx(10e6, rel=0.02)

    def test_slow_start_ramp_visible(self):
        engine = run_single_flow(100e6, latency=0.1)
        early = engine.mean_throughput("f", 0.0, 0.3)
        late = engine.mean_throughput("f", 10.0, 20.0)
        assert early < late * 0.5

    def test_sized_transfer_finishes(self):
        sim = Simulator()
        topology = point_to_point(10e6, latency=0.010).compile().topology
        engine = FluidEngine(sim, GroundTruthConstraints(topology),
                             rng=RngRegistry(3))
        flow = engine.add_flow(FluidFlow("f", "client", "server",
                                         size_bits=5e6))
        sim.run(until=20.0)
        assert flow.finished
        assert flow.bits_transferred >= 5e6


class TestCompetingFlows:
    def test_equal_rtt_fair_share(self):
        sim = Simulator()
        topology = dumbbell(2, shared_bandwidth=50e6).compile().topology
        engine = FluidEngine(sim, GroundTruthConstraints(topology),
                             rng=RngRegistry(4))
        engine.add_flow(FluidFlow("f0", "client0", "server0"))
        engine.add_flow(FluidFlow("f1", "client1", "server1"))
        sim.run(until=30.0)
        share0 = engine.mean_throughput("f0", 10.0, 30.0)
        share1 = engine.mean_throughput("f1", 10.0, 30.0)
        assert share0 + share1 == pytest.approx(50e6, rel=0.05)
        assert share0 == pytest.approx(share1, rel=0.15)

    def test_flow_arrival_steals_bandwidth(self):
        sim = Simulator()
        topology = dumbbell(2, shared_bandwidth=50e6).compile().topology
        engine = FluidEngine(sim, GroundTruthConstraints(topology),
                             rng=RngRegistry(4))
        engine.add_flow(FluidFlow("f0", "client0", "server0"))
        engine.add_flow(FluidFlow("f1", "client1", "server1",
                                  start_time=15.0))
        sim.run(until=30.0)
        solo = engine.mean_throughput("f0", 8.0, 14.0)
        contended = engine.mean_throughput("f0", 22.0, 30.0)
        assert solo == pytest.approx(50e6, rel=0.05)
        assert contended < solo * 0.65

    def test_flow_departure_releases_bandwidth(self):
        sim = Simulator()
        topology = dumbbell(2, shared_bandwidth=50e6).compile().topology
        engine = FluidEngine(sim, GroundTruthConstraints(topology),
                             rng=RngRegistry(4))
        engine.add_flow(FluidFlow("f0", "client0", "server0"))
        engine.add_flow(FluidFlow("f1", "client1", "server1"))
        sim.at(15.0, lambda: engine.remove_flow("f1"))
        sim.run(until=30.0)
        contended = engine.mean_throughput("f0", 8.0, 14.0)
        solo = engine.mean_throughput("f0", 20.0, 30.0)
        assert solo > contended * 1.4

    def test_udp_flow_squeezes_tcp(self):
        sim = Simulator()
        topology = dumbbell(2, shared_bandwidth=50e6).compile().topology
        engine = FluidEngine(sim, GroundTruthConstraints(topology),
                             rng=RngRegistry(4))
        engine.add_flow(FluidFlow("tcp", "client0", "server0"))
        engine.add_flow(FluidFlow("udp", "client1", "server1",
                                  protocol="udp", demand=30e6))
        sim.run(until=30.0)
        tcp_share = engine.mean_throughput("tcp", 15.0, 30.0)
        udp_share = engine.mean_throughput("udp", 15.0, 30.0)
        assert udp_share == pytest.approx(25e6, rel=0.25)
        assert tcp_share < 30e6


class TestFlowMechanics:
    def test_duplicate_key_rejected(self):
        sim = Simulator()
        engine = FluidEngine(sim, GroundTruthConstraints(
            point_to_point(1e6).compile().topology))
        engine.add_flow(FluidFlow("f", "client", "server"))
        with pytest.raises(ValueError):
            engine.add_flow(FluidFlow("f", "client", "server"))

    def test_bad_protocol_rejected(self):
        with pytest.raises(ValueError):
            FluidFlow("f", "a", "b", protocol="sctp")

    def test_bad_cc_rejected(self):
        with pytest.raises(ValueError):
            FluidFlow("f", "a", "b", congestion_control="vegas")

    def test_reno_backoff_halves_window(self):
        flow = FluidFlow("f", "a", "b", congestion_control="reno", rtt=0.02)
        flow.cwnd = 100 * flow.mss_bits
        flow.in_slow_start = False
        flow.advance(1.0, 0.01, achieved=1e6, lost=True)
        assert flow.cwnd == pytest.approx(50 * flow.mss_bits)
        assert flow.loss_events == 1

    def test_cubic_backoff_factor(self):
        flow = FluidFlow("f", "a", "b", congestion_control="cubic", rtt=0.02)
        flow.cwnd = 100 * flow.mss_bits
        flow.in_slow_start = False
        flow.advance(1.0, 0.01, achieved=1e6, lost=True)
        assert flow.cwnd == pytest.approx(70 * flow.mss_bits)

    def test_backoff_at_most_once_per_rtt(self):
        flow = FluidFlow("f", "a", "b", congestion_control="reno", rtt=0.1)
        flow.cwnd = 100 * flow.mss_bits
        flow.in_slow_start = False
        flow.advance(1.0, 0.01, achieved=1e6, lost=True)
        after_first = flow.cwnd
        flow.advance(1.01, 0.01, achieved=1e6, lost=True)  # within one RTT
        assert flow.cwnd >= after_first  # no second halving

    def test_rtt_set_from_provider_on_add(self):
        sim = Simulator()
        topology = point_to_point(1e6, latency=0.030).compile().topology
        engine = FluidEngine(sim, GroundTruthConstraints(topology))
        flow = engine.add_flow(FluidFlow("f", "client", "server"))
        assert flow.rtt == pytest.approx(0.060)
