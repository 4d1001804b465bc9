"""Packet links, full-state network and the Kollaps plane."""

import inspect

import pytest

from repro.baselines.maxinet import MaxinetEmulator
from repro.core import EmulationEngine, EngineConfig
from repro.netstack import (
    DataPlane,
    FullStateNetwork,
    KollapsDataPlane,
    Packet,
    PacketLink,
)
from repro.netstack.fullnet import SwitchModel
from repro.sim import RngRegistry, SimError, Simulator
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

    def test_only_a_link_that_can_draw_gets_its_stream(self):
        """A link's properties hold until ``install_topology`` rebuilds
        every link, so only a lossy or jittery one is handed its
        ``link:<id>`` stream, and it draws what an eager stream would."""
        sim = Simulator()
        topology = point_to_point(1e9, latency=0.010).compile().topology
        registry = RngRegistry(2)
        network = FullStateNetwork(sim, topology, rng=registry)
        assert registry._streams == {}
        changed = topology.copy()
        lossy = changed.update_link("client", "s0", loss=0.25)
        network.install_topology(changed)
        name = f"link:{lossy.link_id}"
        assert list(registry._streams) == [name]
        assert [link_id for link_id, link in network._links.items()
                if link.rng is not None] == [lossy.link_id]
        drops = []
        for index in range(200):
            network.send(Packet("client", "server", 800), lambda p: None,
                         on_drop=lambda p, index=index: drops.append(index))
        sim.run()
        mirror = RngRegistry(2).stream(name)
        assert drops == [index for index in range(200)
                         if mirror.random() < 0.25]


@pytest.mark.parametrize("plane", [KollapsDataPlane, FullStateNetwork,
                                   MaxinetEmulator])
def test_every_plane_has_the_protocol_send_signature(plane):
    """One ``send`` everywhere, so an application never probes a plane
    for what it accepts; the optional ``on_drop`` may go positionally."""
    expected = inspect.signature(DataPlane.send).parameters
    actual = inspect.signature(plane.send).parameters
    assert list(actual) == list(expected)
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in actual.values())


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


class TestConstantRateStream:
    """A constant-rate datagram stream through an engine's Kollaps plane,
    sent with raw ``dataplane.send`` and never backing off: a datagram
    the sender's htb refuses waits behind the chain's blocked writers
    while the stream keeps its pace."""

    DATAGRAM_BITS = 1400 * 8.0

    def stream(self, rate, *, bandwidth=10e6, loss=0.0, until=10.0):
        engine = EmulationEngine(
            point_to_point(bandwidth, latency=0.010,
                           loss=loss).compile().topology,
            config=EngineConfig(machines=1, seed=8,
                                enforce_bandwidth_sharing=False))
        sim, plane = engine.sim, engine.dataplane
        counts = dict.fromkeys(("sent", "delivered", "dropped", "refused"),
                               0)
        delays = []

        def delivered(datagram):
            counts["delivered"] += 1
            delays.append(sim.now - datagram.created)

        def dropped(_datagram):
            counts["dropped"] += 1

        def send():
            counts["sent"] += 1
            plane.send(Packet("client", "server", self.DATAGRAM_BITS,
                              kind="udp", created=sim.now),
                       delivered, dropped)
            sim.after(self.DATAGRAM_BITS / rate, send)

        sim.at(0.0, send)
        engine.run(until=until)
        counts["refused"] = plane.backpressure_events
        return counts, delays

    def test_delivers_at_configured_rate(self):
        counts, _ = self.stream(2e6)
        assert counts["delivered"] * self.DATAGRAM_BITS / 10.0 == \
            pytest.approx(2e6, rel=0.05)
        assert counts["dropped"] == counts["refused"] == 0

    def test_oversubscription_is_refused_not_slowed(self):
        # Four times the wire: the sender never slows down; its own qdisc
        # refuses the excess, which queues, and delivery caps at the link.
        counts, _ = self.stream(20e6, bandwidth=5e6)
        assert counts["delivered"] * self.DATAGRAM_BITS / 10.0 \
            <= 5e6 * 1.05
        assert counts["refused"] > 0.5 * counts["sent"]

    def test_netem_loss_ratio(self):
        counts, _ = self.stream(1e6, loss=0.2, until=20.0)
        assert counts["dropped"] / counts["sent"] == \
            pytest.approx(0.2, abs=0.05)

    def test_one_way_delay(self):
        _, delays = self.stream(1e6, until=5.0)
        assert sum(delays) / len(delays) == pytest.approx(0.010, rel=0.2)


@pytest.mark.parametrize("plane", [KollapsDataPlane, FullStateNetwork,
                                   MaxinetEmulator])
def test_every_plane_has_the_protocol_send_at_signature(plane):
    expected = inspect.signature(DataPlane.send_at).parameters
    assert list(inspect.signature(plane.send_at).parameters) == \
        list(expected)


class ScheduledPlane(KollapsDataPlane):
    """``send_at`` by its definition: ``send``, scheduled at ``time``."""

    def send_at(self, time, packet, deliver, on_drop=None):
        self.sim.at(time, self.send, packet, deliver, on_drop)


@pytest.fixture
def polls(monkeypatch):
    """Every ``poll_active`` answer, in call order, with its TCAL."""
    answers = []
    poll = Tcal.poll_active

    def recording(tcal):
        active = poll(tcal)
        answers.append((tcal.container, active))
        return active

    monkeypatch.setattr(Tcal, "poll_active", recording)
    return answers


def tcal_counters(engine):
    """What shaping left in every TCAL: per chain htb and netem state."""
    return {container: (tcal.netlink_calls, [
        (destination, shaping.htb.rate, shaping.htb._horizon,
         shaping.htb.bits_sent, shaping.htb.packets_sent,
         shaping.htb.backpressure_events, shaping.netem.packets_delayed,
         shaping.netem.packets_dropped, shaping.bits_since_poll,
         shaping.refused_since_poll)
        for destination, shaping in tcal.chains.items()])
        for container, tcal in engine.tcals.items()}


def run_fig4_mesh(monkeypatch, plane_class, polls):
    """The 4-host Figure 4 point at quick scale (10 connections, 0.3 s,
    seed 1) on an engine whose packet plane is ``plane_class``."""
    import repro.core.engine as engine_module
    from repro.apps import KvServer, MemtierClient
    from repro.scenario import custom, resolve_backend
    from repro.scenario.topologies import aws_mesh

    monkeypatch.setattr(engine_module, "KollapsDataPlane", plane_class)
    regions = ["virginia", "oregon", "ireland", "saopaulo"]
    rng = RngRegistry(1)

    def install(engine):
        servers, clients = [], []
        for index, region in enumerate(regions):
            server = KvServer(engine.sim, engine.dataplane,
                              f"node-{region}-0")
            servers.append(server)
            for source in (f"node-{region}-1", f"node-{region}-2",
                           f"node-{regions[(index + 1) % 4]}-3"):
                clients.append(MemtierClient(
                    engine.sim, engine.dataplane, source, server,
                    connections=10, rng=rng.stream(f"memtier:{source}")))
        return servers, clients

    compiled = (aws_mesh(regions, services_per_region=4,
                         service_prefix="node")
                .workload(custom("kv", install))
                .deploy(machines=4, seed=1, duration=0.3)).compile()
    backend = resolve_backend("kollaps")
    engine = backend.prepare(compiled)
    assert type(engine.dataplane) is plane_class
    backend.start_workloads()
    backend.advance(0.3)
    results, _metrics = backend.collect(0.3)
    backend.teardown()
    servers, clients = results["kv"]
    plane = engine.dataplane
    return {
        "clients": [(client.source, client.stats.completed,
                     client.stats.latencies) for client in clients],
        "servers": [server.operations for server in servers],
        "tcals": tcal_counters(engine),
        "polls": list(polls),
        "plane": (plane.packets_delivered, plane.packets_dropped,
                  plane.backpressure_events),
    }, engine.sim.events_dispatched


class TestSendAt:
    """``KollapsDataPlane.send_at`` against its definition: ``send``
    scheduled at ``time`` (:class:`ScheduledPlane`)."""

    def test_fig4_mesh_equals_the_scheduled_send(self, monkeypatch, polls):
        reference, scheduled_events = run_fig4_mesh(
            monkeypatch, ScheduledPlane, polls)
        polls.clear()
        shaped, events = run_fig4_mesh(monkeypatch, KollapsDataPlane, polls)
        assert reference["servers"] and sum(reference["servers"]) > 5000
        assert shaped["clients"] == reference["clients"]
        assert shaped["servers"] == reference["servers"]
        assert shaped["tcals"] == reference["tcals"]
        assert shaped["polls"] == reference["polls"]
        assert shaped["plane"] == reference["plane"]
        # One event fewer per operation, bar the few departures whose
        # window holds a control instant.
        operations = sum(reference["servers"])
        assert scheduled_events - operations <= events \
            < scheduled_events - 0.95 * operations

    def test_a_departure_in_the_past_is_refused(self, monkeypatch):
        engine = self.engine(monkeypatch, KollapsDataPlane)
        self.build_chain(engine)
        engine.run(until=0.2)
        # Shaped as of 0.1999 it would still arrive in the future; it is
        # refused the way ``sim.at`` refuses the past.
        with pytest.raises(SimError):
            engine.dataplane.send_at(0.1999, Packet("server", "client", 800),
                                     lambda p: None)

    # ------------------------------------------------------ the fallbacks
    SERVICE = 20e-6

    def engine(self, monkeypatch, plane_class, *, loop_period=1.0,
               fluid_dt=1.0, schedule=None):
        import repro.core.engine as engine_module
        from repro.core import EmulationEngine, EngineConfig
        monkeypatch.setattr(engine_module, "KollapsDataPlane", plane_class)
        topology = point_to_point(1e9, latency=0.002).compile().topology
        return EmulationEngine(topology, schedule, config=EngineConfig(
            loop_period=loop_period, fluid_dt=fluid_dt, seed=5))

    def drive(self, monkeypatch, plane_class, departures, *, prepare=None,
              **engine_options):
        """Run ``departures`` — ``(call time, departure time, bits)`` from
        server to client — and return what the run produced plus the
        departures ``send_at`` scheduled instead of shaping."""
        engine = self.engine(monkeypatch, plane_class, **engine_options)
        sim, plane = engine.sim, engine.dataplane
        if prepare is not None:
            prepare(engine)
        scheduled, arrivals, drops = [], [], []
        at = sim.at

        def spy(time, callback, *args, **options):
            if callback == plane.send:
                scheduled.append(time)
            return at(time, callback, *args, **options)

        sim.at = spy
        for tag, (call, departure, bits) in enumerate(departures):
            packet = Packet("server", "client", bits, "kv-response", tag,
                            call)
            sim.at(call, plane.send_at, departure, packet,
                   lambda p: arrivals.append((p.payload, sim.now)),
                   lambda p: drops.append((p.payload, sim.now)))
        engine.run(until=2.5)
        return {"arrivals": arrivals, "drops": drops,
                "tcals": tcal_counters(engine),
                "plane": (plane.packets_delivered, plane.packets_dropped,
                          plane.backpressure_events)}, scheduled

    def check(self, monkeypatch, departures, scheduled_times, **options):
        reference, _ = self.drive(monkeypatch, ScheduledPlane, departures,
                                  **options)
        result, scheduled = self.drive(monkeypatch, KollapsDataPlane,
                                       departures, **options)
        assert scheduled == scheduled_times
        assert result == reference
        return result

    @staticmethod
    def build_chain(engine):
        engine.tcals["server"].shaping_for("client")

    def test_a_quiet_window_shapes_at_once(self, monkeypatch):
        result = self.check(
            monkeypatch, [(0.2, 0.2 + self.SERVICE, 8000)], [],
            prepare=self.build_chain)
        assert len(result["arrivals"]) == 1

    def test_a_manager_tick_inside_the_window(self, monkeypatch):
        call = 0.5 - self.SERVICE / 2
        self.check(monkeypatch, [(call, call + self.SERVICE, 8000)],
                   [call + self.SERVICE], loop_period=0.5,
                   prepare=self.build_chain)

    def test_a_fluid_step_inside_the_window(self, monkeypatch):
        call = 0.5 - self.SERVICE / 2
        self.check(monkeypatch, [(call, call + self.SERVICE, 8000)],
                   [call + self.SERVICE], fluid_dt=0.5,
                   prepare=self.build_chain)

    def test_a_state_swap_inside_the_window(self, monkeypatch):
        from repro.topology.events import (DynamicEvent, EventAction,
                                           EventSchedule)
        swap = 0.7
        schedule = EventSchedule([DynamicEvent(
            swap, EventAction.SET_LINK, origin="server", destination="s0",
            changes={"latency": 0.005})])
        call = swap - self.SERVICE / 2
        self.check(monkeypatch, [(call, call + self.SERVICE, 8000)],
                   [call + self.SERVICE], schedule=schedule,
                   prepare=self.build_chain)

    def test_an_unbuilt_chain(self, monkeypatch):
        self.check(monkeypatch, [(0.2, 0.2 + self.SERVICE, 8000)],
                   [0.2 + self.SERVICE])

    def test_a_blocked_chain(self, monkeypatch):
        def saturate(engine):
            tcal = engine.tcals["server"]
            tcal.set_bandwidth("client", 1e4)
            tcal.shaping_for("client").htb.queue_bits = 1000.0
            for _ in range(2):      # the second blocks behind the first
                engine.dataplane.send(Packet("server", "client", 800),
                                      lambda p: None)

        # The htb would admit the departure at 0.2, but the blocked writer
        # drains first, at 0.06: shaped at once, the departure would jump
        # ahead of it.
        self.check(monkeypatch, [(0.01, 0.2, 800)], [0.2], prepare=saturate)

    def test_an_htb_that_would_refuse(self, monkeypatch):
        def fill(engine):
            tcal = engine.tcals["server"]
            tcal.set_bandwidth("client", 1e4)
            tcal.shaping_for("client").htb.queue_bits = 1000.0

        # The first departure is admitted; 20 us later the second finds
        # 800 bits still queued and would be refused.
        result = self.check(
            monkeypatch, [(0.2, 0.2 + self.SERVICE, 800),
                          (0.2 + self.SERVICE, 0.2 + 2 * self.SERVICE, 800)],
            [0.2 + 2 * self.SERVICE], prepare=fill)
        assert result["plane"][2] == 1     # counted once, by send

    def test_a_lossy_chain(self, monkeypatch):
        def lossy(engine):
            engine.tcals["server"].set_netem("client", loss=0.5)

        departures = [(0.2 + index * 1e-3, 0.2 + index * 1e-3 + self.SERVICE,
                       8000) for index in range(8)]
        result = self.check(monkeypatch, departures,
                            [departure for _, departure, _ in departures],
                            prepare=lossy)
        assert result["drops"] and result["arrivals"]

    def test_an_earlier_departure_still_scheduled(self, monkeypatch):
        # The first departure's window holds the manager tick at 0.5, so
        # it is scheduled; the second is called after the tick but before
        # the first leaves, on the same chain, and must queue behind it.
        first = 0.5 - self.SERVICE / 2
        second = 0.5 + self.SERVICE / 4
        self.check(monkeypatch,
                   [(first, first + self.SERVICE, 8000),
                    (second, first + 2 * self.SERVICE, 8000)],
                   [first + self.SERVICE, first + 2 * self.SERVICE],
                   loop_period=0.5, prepare=self.build_chain)
