"""Tests for the fluid TCP model's shaper-interaction semantics.

These behaviours make the §3 congestion story work end-to-end:

* TSQ/ack-clocking: a shaper-limited window stops growing and never
  *crosses* the shaper limit, but an already-inflated window freezes
  rather than deflating (deflation needs loss);
* loss trains collapse into one multiplicative decrease per congestion
  event;
* back-pressure reporting fires on gross window inflation, not on the
  2-MSS minimum window or the normal TSQ equilibrium.
"""

import pytest

from repro.core import EmulationEngine, EngineConfig
from repro.netstack.fluid import FluidEngine, FluidFlow, GroundTruthConstraints
from repro.scenario.topologies import point_to_point
from repro.topology import DynamicEvent, EventAction, EventSchedule

MBPS = 1e6


def advance_repeatedly(flow, achieved, *, steps, dt=0.01, lost=False,
                       start=0.0):
    now = start
    for _ in range(steps):
        flow.advance(now, dt, achieved, lost)
        now += dt
    return now


class TestWindowGrowth:
    def make_flow(self, rtt=0.02):
        flow = FluidFlow("f", "a", "b", congestion_control="reno")
        flow.rtt = rtt
        return flow

    def test_window_limited_flow_grows(self):
        flow = self.make_flow()
        before = flow.cwnd
        # Achieved == cwnd/rtt: the window is the binding constraint.
        flow.advance(0.0, 0.01, flow.cwnd / flow.rtt, False)
        assert flow.cwnd > before

    def test_shaper_limited_flow_freezes(self):
        flow = self.make_flow()
        flow.in_slow_start = False
        flow.cwnd = 10e6 * flow.rtt  # parked at a 10 Mb/s equivalent
        before = flow.cwnd
        # Achieved far below cwnd/rtt: shaping binds, window must freeze.
        advance_repeatedly(flow, achieved=1 * MBPS, steps=50)
        assert flow.cwnd == before

    def test_growth_never_crosses_shaper_limit(self):
        flow = self.make_flow()
        achieved = 5 * MBPS
        advance_repeatedly(flow, achieved, steps=2000)
        assert flow.cwnd <= achieved * flow.rtt / 0.85 + 1e-6

    def test_app_limited_flow_does_not_inflate(self):
        flow = FluidFlow("f", "a", "b", demand=1 * MBPS)
        flow.rtt = 0.02
        flow.cwnd = 10 * flow.demand * flow.rtt
        before = flow.cwnd
        advance_repeatedly(flow, achieved=1 * MBPS, steps=50)
        assert flow.cwnd == before


class TestBackoffEvents:
    def test_loss_train_is_one_event(self):
        flow = FluidFlow("f", "a", "b", congestion_control="cubic")
        flow.rtt = 0.002
        flow.cwnd = 1e6
        # 10 consecutive lossy steps within one reaction window.
        advance_repeatedly(flow, achieved=10 * MBPS, steps=4, lost=True)
        assert flow.loss_events == 1

    def test_separated_losses_are_separate_events(self):
        flow = FluidFlow("f", "a", "b", congestion_control="cubic")
        flow.rtt = 0.002
        flow.cwnd = 1e6
        flow.advance(0.0, 0.01, 10 * MBPS, True)
        flow.advance(0.5, 0.01, 10 * MBPS, True)
        assert flow.loss_events == 2


class TestPressureReporting:
    def run_engine(self, *, shrink_to=None, bandwidth=50 * MBPS,
                   latency=0.050, until=20.0):
        """A WAN-like path: a shrink leaves a window inflated by far more
        than the 16-MSS allowance, which is where §3's loss injection is
        needed (short-RTT windows are small enough for queues to absorb).
        """
        schedule = None
        if shrink_to is not None:
            schedule = EventSchedule([DynamicEvent(
                time=until / 2, action=EventAction.SET_LINK,
                origin="client", destination="s0",
                changes={"bandwidth": shrink_to})])
        engine = EmulationEngine(
            point_to_point(bandwidth, latency=latency).compile().topology,
            schedule, config=EngineConfig(seed=4))
        flow = engine.start_flow("f", "client", "server")
        engine.run(until=until)
        return engine, flow

    def test_steady_flow_never_backs_off(self):
        _engine, flow = self.run_engine()
        assert flow.loss_events == 0

    def test_large_shrink_triggers_loss_and_converges(self):
        engine, flow = self.run_engine(shrink_to=5 * MBPS)
        assert flow.loss_events > 0
        assert engine.fluid.mean_throughput("f", 15.0, 20.0) == \
            pytest.approx(5 * MBPS, rel=0.15)

    def test_min_window_does_not_deadlock(self):
        # After convergence the loss injection must clear: the flow's
        # 2-MSS minimum window over a short RTT is not oversubscription.
        engine, _flow = self.run_engine(shrink_to=5 * MBPS)
        shaping = engine.tcals["client"].shaping_for("server")
        assert shaping.netem.loss < 0.01

    def test_udp_keeps_pushing_and_gets_loss(self):
        # §3: UDP "simply continues to send packets at the application
        # sending rate" — an oversubscribing UDP flow keeps its rate and
        # the emulation answers with sustained packet loss.
        schedule = EventSchedule([DynamicEvent(
            time=6.0, action=EventAction.SET_LINK, origin="client",
            destination="s0", changes={"bandwidth": 5 * MBPS})])
        engine = EmulationEngine(point_to_point(50 * MBPS).compile().topology,
                                 schedule, config=EngineConfig(seed=4))
        engine.start_flow("u", "client", "server", protocol="udp",
                          demand=40 * MBPS)
        engine.run(until=12.0)
        shaping = engine.tcals["client"].shaping_for("server")
        # The UDP sender never backs off, so loss stays injected.
        assert shaping.netem.loss > 0.3
        delivered = engine.fluid.mean_throughput("u", 10.0, 12.0)
        assert delivered <= 5 * MBPS * 1.05


class TestTcalRefusedAccounting:
    def make_plane(self):
        from repro.netstack.kollapsnet import KollapsDataPlane
        from repro.sim import Simulator
        from repro.tc.ip import IpAllocator
        from repro.tc.tcal import Tcal

        sim = Simulator()
        allocator = IpAllocator()
        allocator.assign("a")
        allocator.assign("b")
        tcal = Tcal("a", allocator)
        tcal.install_destination("b", latency=0.0, jitter=0.0, loss=0.0,
                                 bandwidth=1e6)
        plane = KollapsDataPlane(sim)
        plane.attach_tcal("a", tcal)
        return sim, plane, tcal

    def test_blocking_backpressure_is_not_refused(self):
        # Blocking senders' packets queue and are carried later: counting
        # them as refused would double a flow-controlled stream's demand.
        from repro.netstack.packet import Packet

        sim, plane, tcal = self.make_plane()
        for _ in range(400):
            plane.send(Packet("a", "b", 1500 * 8.0), lambda p: None)
        carried, refused = tcal.poll_active()["b"]
        assert carried > 0 and refused == 0.0
        assert plane.backpressure_events > 0
