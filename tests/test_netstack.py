"""Packet links, full-state network, Kollaps plane and the short-flow model."""

import inspect

import pytest

from repro.baselines.maxinet import MaxinetEmulator
from repro.netstack import (
    DataPlane,
    FullStateNetwork,
    KollapsDataPlane,
    Packet,
    PacketLink,
    short_flow_transfer_time,
)
from repro.netstack.fullnet import SwitchModel
from repro.netstack.shortflow import slow_start_rounds
from repro.sim import RngRegistry, Simulator
from repro.tc.ip import IpAllocator
from repro.tc.tcal import Tcal
from repro.topology import Bridge, LinkProperties, Service, Topology
from repro.scenario.topologies import point_to_point


class TestPacketLink:
    def test_delivery_after_serialization_and_propagation(self):
        sim = Simulator()
        link = PacketLink(sim, LinkProperties(latency=0.010, bandwidth=1e6))
        arrivals = []
        link.transmit(Packet("a", "b", 8000), lambda p: arrivals.append(sim.now))
        sim.run()
        assert arrivals == [pytest.approx(0.010 + 8000 / 1e6)]

    def test_fifo_serialization_queues_consecutive_packets(self):
        sim = Simulator()
        link = PacketLink(sim, LinkProperties(latency=0.0, bandwidth=1e6))
        arrivals = []
        for _ in range(3):
            link.transmit(Packet("a", "b", 10e3),
                          lambda p: arrivals.append(sim.now))
        sim.run()
        assert arrivals == [pytest.approx(0.01), pytest.approx(0.02),
                            pytest.approx(0.03)]

    def test_buffer_overflow_tail_drops(self):
        sim = Simulator()
        link = PacketLink(sim, LinkProperties(bandwidth=1e6),
                          buffer_bits=15e3)
        outcomes = [link.transmit(Packet("a", "b", 10e3), lambda p: None)
                    for _ in range(3)]
        assert outcomes == [True, False, False]
        assert link.packets_dropped == 2

    def test_random_loss(self):
        sim = Simulator()
        rng = RngRegistry(5).stream("loss")
        link = PacketLink(sim, LinkProperties(bandwidth=1e9, loss=0.5),
                          rng=rng)
        sent = sum(link.transmit(Packet("a", "b", 800), lambda p: None)
                   for _ in range(2000))
        assert 850 < sent < 1150

    def test_infinite_bandwidth_is_pure_delay(self):
        sim = Simulator()
        link = PacketLink(sim, LinkProperties(latency=0.005))
        arrivals = []
        link.transmit(Packet("a", "b", 1e9), lambda p: arrivals.append(sim.now))
        sim.run()
        assert arrivals == [pytest.approx(0.005)]


class TestFullStateNetwork:
    def test_end_to_end_delivery_latency(self):
        sim = Simulator()
        topology = point_to_point(1e9, latency=0.020).compile().topology
        network = FullStateNetwork(sim, topology)
        arrivals = []
        network.send(Packet("client", "server", 8000, created=sim.now),
                     lambda p: arrivals.append(sim.now))
        sim.run()
        assert len(arrivals) == 1
        # Two hops of 10 ms plus two serializations of 8 us.
        assert arrivals[0] == pytest.approx(0.020 + 2 * 8000 / 1e9)

    def test_unreachable_destination_dropped(self):
        sim = Simulator()
        topology = Topology()
        topology.add_service(Service("a"))
        topology.add_service(Service("b"))
        topology.add_bridge(Bridge("s"))
        topology.add_link("a", "s", LinkProperties())
        network = FullStateNetwork(sim, topology)
        drops = []
        network.send(Packet("a", "b", 800), lambda p: None,
                     on_drop=lambda p: drops.append(p))
        sim.run()
        assert len(drops) == 1
        assert not network.reachable("a", "b")

    def test_switch_overhead_adds_delay(self):
        def run(with_switch_model):
            sim = Simulator()
            topology = point_to_point(1e9, latency=0.010).compile().topology
            factory = (lambda name: SwitchModel(forward_delay=0.002)) \
                if with_switch_model else None
            network = FullStateNetwork(sim, topology,
                                       switch_model_factory=factory)
            arrivals = []
            network.send(Packet("client", "server", 800),
                         lambda p: arrivals.append(sim.now))
            sim.run()
            return arrivals[0]

        assert run(True) - run(False) == pytest.approx(0.002)

    def test_connection_setup_cost_paid_once_per_connection(self):
        switch = SwitchModel(connection_setup_cost=0.001)
        first = switch.processing_delay(0.0, ("a", "b", "conn1"))
        repeat = switch.processing_delay(0.0, ("a", "b", "conn1"))
        assert first >= 0.001
        assert repeat < first
        assert switch.setups == 1

    def test_setups_queue_on_the_shared_cpu(self):
        switch = SwitchModel(connection_setup_cost=0.001)
        first = switch.processing_delay(0.0, ("a", "b", "conn1"))
        second = switch.processing_delay(0.0, ("a", "b", "conn2"))
        # The second setup waits behind the first on the switch CPU.
        assert second == pytest.approx(first + 0.001)

    def test_install_topology_reroutes(self):
        sim = Simulator()
        topology = point_to_point(1e9, latency=0.010).compile().topology
        network = FullStateNetwork(sim, topology)
        changed = topology.copy()
        changed.update_link("client", "s0", latency=0.050)
        changed.update_link("s0", "client", latency=0.050)
        network.install_topology(changed)
        arrivals = []
        network.send(Packet("client", "server", 800),
                     lambda p: arrivals.append(sim.now))
        sim.run()
        assert arrivals[0] == pytest.approx(0.055, rel=1e-3)


@pytest.mark.parametrize("plane", [KollapsDataPlane, FullStateNetwork,
                                   MaxinetEmulator])
def test_every_plane_has_the_protocol_send_signature(plane):
    """One ``send`` everywhere, so an application never probes a plane
    for what it accepts; the optional callbacks may go positionally."""
    expected = inspect.signature(DataPlane.send).parameters
    actual = inspect.signature(plane.send).parameters
    assert list(actual) == list(expected)
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in actual.values())


def test_full_state_network_accepts_and_ignores_on_backpressure():
    sim = Simulator()
    topology = point_to_point(1e9, latency=0.020).compile().topology
    network = FullStateNetwork(sim, topology)
    arrivals, refused = [], []
    network.send(Packet("client", "server", 8000), arrivals.append, None,
                 lambda p, retry_at: refused.append(p))
    sim.run()
    assert len(arrivals) == 1 and refused == []


class TestKollapsDataPlane:
    def build(self, machines=("m0", "m0")):
        sim = Simulator()
        allocator = IpAllocator()
        allocator.assign("a")
        allocator.assign("b")
        plane = KollapsDataPlane(
            sim, placement={"a": machines[0], "b": machines[1]},
            container_network_delay=10e-6, physical_network_delay=90e-6)
        for name, peer in (("a", "b"), ("b", "a")):
            tcal = Tcal(name, allocator)
            tcal.install_destination(peer, latency=0.010, jitter=0.0,
                                     loss=0.0, bandwidth=1e9)
            plane.attach_tcal(name, tcal)
        return sim, plane

    def test_same_machine_delivery(self):
        sim, plane = self.build()
        arrivals = []
        plane.send(Packet("a", "b", 8000), lambda p: arrivals.append(sim.now))
        sim.run()
        assert arrivals[0] == pytest.approx(0.010 + 8000 / 1e9 + 10e-6)

    def test_cross_machine_adds_physical_delay(self):
        sim, plane = self.build(machines=("m0", "m1"))
        arrivals = []
        plane.send(Packet("a", "b", 8000), lambda p: arrivals.append(sim.now))
        sim.run()
        assert arrivals[0] == pytest.approx(0.010 + 8000 / 1e9 + 100e-6)

    def test_netem_loss_invokes_on_drop(self):
        sim, plane = self.build()
        plane.tcal_for("a").set_netem("b", loss=1.0)
        drops = []
        plane.send(Packet("a", "b", 800), lambda p: None,
                   on_drop=lambda p: drops.append(p))
        sim.run()
        assert len(drops) == 1
        assert plane.packets_dropped == 1

    def test_backpressure_retries_by_default(self):
        sim, plane = self.build()
        tcal = plane.tcal_for("a")
        tcal.set_bandwidth("b", 1e4)  # tiny rate so the queue fills
        shaping = tcal.shaping_for("b")
        shaping.htb.queue_bits = 1000.0
        arrivals = []
        for _ in range(3):
            plane.send(Packet("a", "b", 800),
                       lambda p: arrivals.append(sim.now))
        sim.run()
        assert len(arrivals) == 3  # all delivered eventually
        assert plane.backpressure_events >= 1

    def test_saturated_chain_delivers_blocked_senders_fifo(self):
        sim, plane = self.build()
        tcal = plane.tcal_for("a")
        tcal.set_bandwidth("b", 1e4)
        tcal.shaping_for("b").htb.queue_bits = 1000.0   # one 800-bit packet
        arrivals = []
        for tag in range(6):
            plane.send(Packet("a", "b", 800, payload=tag),
                       lambda p: arrivals.append((p.payload, sim.now)))
        # The first packet was admitted; the other five block, and every
        # sender arriving behind a blocked one queues behind it.
        assert plane.backpressure_events == 5
        sim.run()
        assert [tag for tag, _ in arrivals] == list(range(6))
        times = [time for _, time in arrivals]
        assert times == sorted(times)
        # Paced at the chain's rate: 800 bits every 80 ms.
        assert times[-1] - times[0] == pytest.approx(5 * 800 / 1e4, rel=0.01)
        assert plane.packets_delivered == 6
        assert plane.packets_dropped == 0

    def test_blocked_sender_dropped_by_netem_is_not_delivered(self):
        sim, plane = self.build()
        tcal = plane.tcal_for("a")
        tcal.set_bandwidth("b", 1e4)
        tcal.shaping_for("b").htb.queue_bits = 1000.0
        delivered, dropped = [], []
        for tag in range(3):
            plane.send(Packet("a", "b", 800, payload=tag),
                       lambda p: delivered.append(p.payload),
                       on_drop=lambda p: dropped.append(p.payload))
        tcal.set_netem("b", loss=1.0)       # everything still blocked is lost
        sim.run()
        assert delivered == [0] and dropped == [1, 2]
        assert plane.packets_delivered == 1 and plane.packets_dropped == 2

    def test_non_blocking_sender_is_refused_not_queued(self):
        sim, plane = self.build()
        tcal = plane.tcal_for("a")
        tcal.set_bandwidth("b", 1e4)
        shaping = tcal.shaping_for("b")
        shaping.htb.queue_bits = 1000.0
        refused = []
        for _ in range(2):
            plane.send(Packet("a", "b", 800), lambda p: None,
                       on_backpressure=lambda p, retry_at:
                       refused.append(retry_at))
        sim.run()
        assert len(refused) == 1 and refused[0] > 0.0
        assert shaping.refused_since_poll == 800
        assert plane.packets_delivered == 1

    def test_non_blocking_sender_behind_blocked_writers_gets_eagain(self):
        """A sender that passed ``on_backpressure`` never takes a place in
        the blocked writers' FIFO: it tries the queue and is refused, and
        the congestion model sees the load it offered."""
        sim, plane = self.build()
        tcal = plane.tcal_for("a")
        tcal.set_bandwidth("b", 1e6)
        shaping = tcal.shaping_for("b")
        delivered, refused = [], []
        for _ in range(200):                # blocking writers fill the queue
            plane.send(Packet("a", "b", 12000, kind="tcp"),
                       lambda p: delivered.append(p.kind))
        assert plane.backpressure_events > 0
        plane.send(Packet("a", "b", 11200, kind="udp"),
                   lambda p: delivered.append(p.kind),
                   on_backpressure=lambda p, retry_at:
                   refused.append((p.kind, retry_at)))
        assert [kind for kind, _ in refused] == ["udp"]
        assert refused[0][1] > sim.now
        assert shaping.refused_since_poll == 11200
        sim.run()
        assert delivered == ["tcp"] * 200   # abandoned, not carried later

    def test_non_blocking_sender_is_admitted_when_the_queue_has_room(self):
        sim, plane = self.build()
        tcal = plane.tcal_for("a")
        tcal.set_bandwidth("b", 1e4)
        tcal.shaping_for("b").htb.queue_bits = 1000.0
        delivered, refused = [], []
        for tag in range(3):                # 0 admitted, 1 and 2 block
            plane.send(Packet("a", "b", 800, payload=tag),
                       lambda p: delivered.append(p.payload))
        # Just after the first drain admitted writer 1 the queue is full
        # again; once that packet is out there is room until the next drain.
        sim.run(until=0.081)
        plane.send(Packet("a", "b", 100, payload="udp"),
                   lambda p: delivered.append(p.payload), None,
                   lambda p, retry_at: refused.append(p.payload))
        sim.run()
        assert refused == []
        assert delivered == [0, 1, "udp", 2]    # ahead of blocked writer 2

    def test_unknown_source_raises(self):
        _, plane = self.build()
        with pytest.raises(KeyError, match="no TCAL attached"):
            plane.send(Packet("ghost", "b", 800), lambda p: None)

    def test_unknown_destination_dropped(self):
        sim, plane = self.build()
        drops = []
        plane.send(Packet("a", "ghost", 800), lambda p: None,
                   on_drop=lambda p: drops.append(p))
        assert len(drops) == 1

    def test_reachable(self):
        _, plane = self.build()
        assert plane.reachable("a", "b")
        assert not plane.reachable("a", "ghost")


class TestShortFlowModel:
    def test_zero_size_costs_handshake_only(self):
        assert short_flow_transfer_time(0, rtt=0.010, bandwidth=1e9) == \
            pytest.approx(0.015)

    def test_small_transfer_dominated_by_rtt(self):
        # 64 KB at 100 Mb/s: serialization is ~5 ms but slow start adds RTTs.
        time_fast_link = short_flow_transfer_time(64e3 * 8, rtt=0.010,
                                                  bandwidth=100e6)
        time_slow_rtt = short_flow_transfer_time(64e3 * 8, rtt=0.050,
                                                 bandwidth=100e6)
        assert time_slow_rtt > time_fast_link * 3

    def test_large_transfer_approaches_line_rate(self):
        size = 1e9  # 125 MB
        elapsed = short_flow_transfer_time(size, rtt=0.010, bandwidth=100e6)
        assert elapsed == pytest.approx(size / 100e6, rel=0.1)

    def test_slow_start_rounds_double(self):
        # 10 * 1448B ~ 115 kbit initial window; 1 Mbit payload on a fat pipe.
        rounds = slow_start_rounds(1e6, rtt=0.010, bandwidth=10e9)
        assert rounds == 4  # 115k + 230k + 460k + 920k > 1M

    def test_monotone_in_size(self):
        times = [short_flow_transfer_time(size, rtt=0.02, bandwidth=50e6)
                 for size in (1e4, 1e5, 1e6, 1e7)]
        assert times == sorted(times)
