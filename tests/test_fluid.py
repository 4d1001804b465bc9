"""Fluid engine: AIMD dynamics, allocation, Reno vs Cubic, UDP."""

import pytest

from repro import telemetry
from repro.baselines.baremetal import BareMetalTestbed
from repro.netstack.fluid import (
    FluidEngine,
    FluidFlow,
    GroundTruthConstraints,
)
from repro.netstack.packet import Packet
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


class TestLossStream:
    """The ``fluid-loss`` stream is made on the first step that draws."""

    @staticmethod
    def run(loss, *, eager=False):
        sim = Simulator()
        topology = point_to_point(10e6, latency=0.020,
                                  loss=loss).compile().topology
        registry = RngRegistry(3)
        if eager:
            registry.stream("fluid-loss")
        engine = FluidEngine(sim, GroundTruthConstraints(topology),
                             rng=registry)
        engine.add_flow(FluidFlow("f", "client", "server"))
        sim.run(until=5.0)
        return registry, engine

    def test_an_engine_that_never_draws_makes_no_stream(self):
        registry, engine = self.run(0.0)
        assert engine.mean_throughput("f", 2.0, 5.0) > 0
        assert registry._streams == {}

    def test_a_stream_made_on_the_first_draw_draws_what_an_eager_one_does(
            self):
        registry, engine = self.run(0.01)
        eager_registry, eager = self.run(0.01, eager=True)
        assert list(registry._streams) == ["fluid-loss"]
        assert engine.series("f") == eager.series("f")
        assert registry.stream("fluid-loss").getstate() == \
            eager_registry.stream("fluid-loss").getstate() != \
            RngRegistry(3).stream("fluid-loss").getstate()


class StepwiseSimulator(Simulator):
    """A kernel whose horizon is always the event being dispatched: the
    fluid engine then replays no step ahead, and each has its own event."""

    @property
    def horizon(self):
        return self.now


class TestInlineReplay:
    """Steps replayed inline, up to the next event, write exactly what
    dispatching every step writes."""

    DT = 0.010

    @staticmethod
    def system(kind):
        if kind == "baremetal":
            return BareMetalTestbed(
                dumbbell(2, shared_bandwidth=20e6).compile().topology, seed=3)
        return dumbbell(2, shared_bandwidth=20e6).deploy(
            machines=2, seed=3,
            enforce_bandwidth_sharing=kind == "kollaps").compile().engine()

    def drive(self, kind):
        """Flows that converge, one that finishes, one that starts off the
        grid and one stopped on it, pings through the first flow's chain
        (on Kollaps), and runs that end off the grid, exactly on a step
        time, and between two series."""
        system = self.system(kind)
        sim, fluid = system.sim, system.fluid
        system.start_flow("udp", "client0", "server0", protocol="udp",
                          demand=5e6)
        system.start_flow("tcp", "client1", "server1")
        system.start_flow("sized", "client0", "server0", protocol="udp",
                          demand=3e6, size_bits=3e6 * 0.7371)
        system.start_flow("late", "client1", "server1", protocol="udp",
                          demand=2e6, start_time=0.5373)
        system.start_flow("stopped", "client1", "server1", protocol="udp",
                          demand=1e6)
        # Stopped by an event falling exactly on a step time, which runs
        # before that step (priority 0 against the step's 10).
        on_a_step = 0.0
        for _ in range(113):
            on_a_step += self.DT
        sim.at(on_a_step, system.stop_flow, "stopped")
        delivered = []
        # On bare metal a ping leaves the wire a packet rate that decays
        # for tens of seconds, and every step integrates meanwhile.
        for index in range(0 if kind == "baremetal" else 12):
            sim.at(0.0413 + 0.0997 * index, system.dataplane.send,
                   Packet("client0", "server0", 480.0, kind="probe"),
                   lambda packet: delivered.append(sim.now))
        observed = []

        def observe():
            chains = [] if kind == "baremetal" else [
                (container, destination, chain.bits_since_poll,
                 chain.refused_since_poll)
                for container, tcal in system.tcals.items()
                for destination, chain in tcal.chains.items()]
            flows = [(key, flow.bits_transferred, flow.finished)
                     for key, flow in fluid.flows.items()]
            series = {key: fluid.series(key) for key in
                      ("udp", "tcp", "sized", "late", "stopped", "nobody")}
            observed.append((sim.now, fluid.next_step(), flows, chains,
                             list(delivered), series))

        system.run(until=0.3047)
        observe()
        on_a_step = fluid.next_step()
        for _ in range(37):
            on_a_step += self.DT
        system.run(until=on_a_step)
        observe()
        system.run(until=1.5)
        observe()
        return observed, sim.events_dispatched, len(fluid.series("udp"))

    def drive_stepwise(self, kind, monkeypatch):
        """:meth:`drive` with every fluid step its own event."""
        monkeypatch.setattr("repro.core.engine.Simulator", StepwiseSimulator)
        monkeypatch.setattr("repro.baselines.baremetal.Simulator",
                            StepwiseSimulator)
        return self.drive(kind)

    @pytest.mark.parametrize("kind",
                             ["kollaps", "latency-only", "baremetal"])
    def test_inline_replay_is_every_step_dispatched(self, kind, monkeypatch):
        inline, inline_events, steps = self.drive(kind)
        stepwise, stepwise_events, stepwise_steps = self.drive_stepwise(
            kind, monkeypatch)
        assert steps == stepwise_steps == 150
        for at, (batched, single) in enumerate(zip(inline, stepwise)):
            assert batched == single, at
        # The same steps in fewer events; the finite flow finished.
        assert inline_events < stepwise_events
        assert dict((key, done) for key, _bits, done in inline[-1][2]) \
            == {"udp": False, "tcp": False, "sized": True, "late": False}
        # The second run ended exactly on a step, which it took.
        assert inline[1][5]["udp"].times[-1] == inline[1][0]
        assert inline[1][1] == inline[1][0] + self.DT

    @pytest.mark.parametrize("kind",
                             ["kollaps", "latency-only", "baremetal"])
    def test_steps_inline_counts_the_events_it_saved(self, kind,
                                                     monkeypatch):
        telemetry.metrics.clear()
        telemetry.enable()
        try:
            _observed, inline_events, steps = self.drive(kind)
            counted = {name: telemetry.metrics.counter(name).value
                       for name in ("fluid.steps", "fluid.steps_inline")}
        finally:
            telemetry.disable()
            telemetry.metrics.clear()
        _observed, stepwise_events, _steps = self.drive_stepwise(
            kind, monkeypatch)
        assert counted["fluid.steps"] == steps
        assert counted["fluid.steps_inline"] == \
            stepwise_events - inline_events > 0
