"""The emulation engine end-to-end: enforcement, dynamics, metadata."""

import pytest

from repro.core import EmulationEngine, EngineConfig
from repro.topology import (
    DynamicEvent,
    EventAction,
    EventSchedule,
    LinkProperties,
)
from repro.scenario.topologies import (
    dumbbell,
    point_to_point,
    throttling,
)

MBPS = 1e6


class TestBasicEmulation:
    def test_single_flow_reaches_path_bandwidth(self):
        engine = EmulationEngine(point_to_point(50 * MBPS).compile().topology,
                                 config=EngineConfig(machines=1, seed=2))
        engine.start_flow("f", "client", "server")
        engine.run(until=10.0)
        assert engine.fluid.mean_throughput("f", 4.0, 10.0) == \
            pytest.approx(50 * MBPS, rel=0.08)

    def test_two_flows_share_bottleneck(self):
        engine = EmulationEngine(
            dumbbell(2, shared_bandwidth=50 * MBPS).compile().topology,
            config=EngineConfig(machines=2, seed=2))
        engine.start_flow("f0", "client0", "server0")
        engine.start_flow("f1", "client1", "server1")
        engine.run(until=15.0)
        total = (engine.fluid.mean_throughput("f0", 8.0, 15.0) +
                 engine.fluid.mean_throughput("f1", 8.0, 15.0))
        assert total == pytest.approx(50 * MBPS, rel=0.10)

    def test_latency_applied_to_packets(self):
        from repro.netstack.packet import Packet
        engine = EmulationEngine(
            point_to_point(1e9, latency=0.030).compile().topology,
            config=EngineConfig(enforce_bandwidth_sharing=False))
        arrivals = []
        engine.dataplane.send(Packet("client", "server", 800),
                              lambda p: arrivals.append(engine.sim.now))
        engine.run(until=1.0)
        assert arrivals[0] == pytest.approx(0.030, rel=0.01)

    def test_placement_spreads_containers(self):
        engine = EmulationEngine(dumbbell(4).compile().topology,
                                 config=EngineConfig(machines=4))
        machines_used = set(engine.placement.values())
        assert len(machines_used) == 4

    def test_explicit_placement_honoured(self):
        topology = point_to_point(1e6).compile().topology
        engine = EmulationEngine(
            topology, config=EngineConfig(machines=2),
            placement={"client": "host-0", "server": "host-1"})
        assert engine.placement["client"] == "host-0"
        assert engine.placement["server"] == "host-1"


class TestFigure8OnEngine:
    def test_staggered_shares_track_model(self):
        """First three arrivals of §5.4 on the full decentralized stack."""
        engine = EmulationEngine(throttling().compile().topology,
                                 config=EngineConfig(machines=2, seed=1))
        engine.start_flow("c1", "c1", "s1", start_time=0.0)
        engine.start_flow("c2", "c2", "s2", start_time=6.0)
        engine.start_flow("c3", "c3", "s3", start_time=12.0)
        engine.run(until=24.0)
        # Solo phase: c1 takes the whole 50 Mb/s bottleneck.
        assert engine.fluid.mean_throughput("c1", 3.0, 5.5) == \
            pytest.approx(50 * MBPS, rel=0.10)
        # Two flows: RTT-proportional 23.08 / 26.92 split.
        assert engine.fluid.mean_throughput("c1", 9.0, 11.5) == \
            pytest.approx(23.08 * MBPS, rel=0.15)
        assert engine.fluid.mean_throughput("c2", 9.0, 11.5) == \
            pytest.approx(26.92 * MBPS, rel=0.15)
        # Three flows: 18.45 / 21.55 / 10 (c3 pinned by its access link).
        assert engine.fluid.mean_throughput("c1", 18.0, 24.0) == \
            pytest.approx(18.45 * MBPS, rel=0.15)
        assert engine.fluid.mean_throughput("c2", 18.0, 24.0) == \
            pytest.approx(21.55 * MBPS, rel=0.15)
        assert engine.fluid.mean_throughput("c3", 18.0, 24.0) == \
            pytest.approx(10 * MBPS, rel=0.15)


class TestDynamicTopology:
    def test_bandwidth_change_takes_effect(self):
        schedule = EventSchedule([DynamicEvent(
            time=10.0, action=EventAction.SET_LINK, origin="client",
            destination="s0", changes={"bandwidth": 5 * MBPS})])
        engine = EmulationEngine(point_to_point(50 * MBPS).compile().topology,
                                 schedule, config=EngineConfig(seed=2))
        engine.start_flow("f", "client", "server")
        engine.run(until=20.0)
        before = engine.fluid.mean_throughput("f", 5.0, 10.0)
        after = engine.fluid.mean_throughput("f", 14.0, 20.0)
        assert before == pytest.approx(50 * MBPS, rel=0.10)
        assert after == pytest.approx(5 * MBPS, rel=0.15)

    def test_latency_change_affects_packets(self):
        from repro.netstack.packet import Packet
        schedule = EventSchedule([DynamicEvent(
            time=5.0, action=EventAction.SET_LINK, origin="client",
            destination="s0", changes={"latency": 0.100})])
        engine = EmulationEngine(
            point_to_point(1e9, latency=0.010).compile().topology, schedule,
            config=EngineConfig(enforce_bandwidth_sharing=False))
        arrivals = []
        engine.sim.at(6.0, lambda: engine.dataplane.send(
            Packet("client", "server", 800),
            lambda p: arrivals.append(engine.sim.now - 6.0)))
        engine.run(until=7.0)
        # New one-way: 100 ms (changed half) + 5 ms (other half).
        assert arrivals[0] == pytest.approx(0.105, rel=0.01)

    def test_link_removal_partitions(self):
        from repro.netstack.packet import Packet
        schedule = EventSchedule([DynamicEvent(
            time=5.0, action=EventAction.LEAVE_LINK, origin="client",
            destination="s0")])
        engine = EmulationEngine(
            point_to_point(1e9).compile().topology, schedule,
            config=EngineConfig(enforce_bandwidth_sharing=False))
        drops = []
        engine.sim.at(6.0, lambda: engine.dataplane.send(
            Packet("client", "server", 800), lambda p: None,
            on_drop=lambda p: drops.append(p)))
        engine.run(until=7.0)
        assert len(drops) == 1

    def test_flapping_link_restores_connectivity(self):
        from repro.netstack.packet import Packet
        base = point_to_point(1e9, latency=0.010).compile().topology
        properties = base.get_link("client", "s0").properties
        schedule = EventSchedule([
            DynamicEvent(time=5.0, action=EventAction.LEAVE_LINK,
                         origin="client", destination="s0"),
            DynamicEvent(time=5.5, action=EventAction.JOIN_LINK,
                         origin="client", destination="s0",
                         properties=properties),
        ])
        engine = EmulationEngine(
            base, schedule, config=EngineConfig(enforce_bandwidth_sharing=False))
        arrivals = []
        engine.sim.at(6.0, lambda: engine.dataplane.send(
            Packet("client", "server", 800),
            lambda p: arrivals.append(engine.sim.now)))
        engine.run(until=7.0)
        assert len(arrivals) == 1

    def test_leave_join_churn_does_not_leak_htb_classes(self):
        from repro.netstack.packet import Packet
        base = point_to_point(1e9, latency=0.010).compile().topology
        properties = base.get_link("client", "s0").properties
        events = []
        for flap in range(5):
            events.append(DynamicEvent(
                time=1.0 + flap, action=EventAction.LEAVE_LINK,
                origin="client", destination="s0"))
            events.append(DynamicEvent(
                time=1.5 + flap, action=EventAction.JOIN_LINK,
                origin="client", destination="s0", properties=properties))
        engine = EmulationEngine(
            base, EventSchedule(events),
            config=EngineConfig(enforce_bandwidth_sharing=False))
        delivered = []
        # down, up, down, up again.  Chains are built by traffic, so every
        # up-phase sends a packet each way: a leave that forgot the htb
        # class or the filter rule would leave more of them than chains.
        for until, up in ((1.2, False), (1.7, True), (3.2, False),
                          (6.0, True)):
            engine.run(until=until)
            if up:
                for source, destination in (("client", "server"),
                                            ("server", "client")):
                    engine.dataplane.send(Packet(source, destination, 800),
                                          delivered.append)
            for tcal in engine.tcals.values():
                assert len(tcal.qdisc.classes()) == \
                    len(tcal.destinations()) == tcal.filter.rules
                assert len(tcal.destinations()) == (1 if up else 0)
        engine.run(until=6.5)
        assert len(delivered) == 4


class TestChainLifecycle:
    """tc chains exist for the pairs that carried traffic, built from the
    state in force when they first did."""

    def flapping_engine(self, **config):
        """client - s0 - server; the client's link slows down at t=2,
        leaves at t=4 and rejoins at t=6."""
        base = point_to_point(100 * MBPS, latency=0.010).compile().topology
        properties = base.get_link("client", "s0").properties
        schedule = EventSchedule([
            DynamicEvent(time=2.0, action=EventAction.SET_LINK,
                         origin="client", destination="s0",
                         changes={"latency": 0.040,
                                  "bandwidth": 20 * MBPS}),
            DynamicEvent(time=4.0, action=EventAction.LEAVE_LINK,
                         origin="client", destination="s0"),
            DynamicEvent(time=6.0, action=EventAction.JOIN_LINK,
                         origin="client", destination="s0",
                         properties=properties),
        ])
        config.setdefault("enforce_bandwidth_sharing", False)
        return EmulationEngine(base, schedule, config=EngineConfig(**config))

    @staticmethod
    def chains(engine):
        return {name: tcal.destinations()
                for name, tcal in engine.tcals.items()}

    def test_a_fresh_engine_has_routes_but_no_chains(self):
        engine = self.flapping_engine()
        assert self.chains(engine) == {"client": (), "server": ()}
        assert engine.dataplane.reachable("client", "server")
        assert engine.dataplane.reachable("server", "client")
        assert not engine.dataplane.reachable("client", "ghost")
        assert self.chains(engine) == {"client": (), "server": ()}

    def test_first_packet_builds_the_chain_of_the_state_in_force(self):
        from repro.netstack.packet import Packet
        engine = self.flapping_engine()
        arrivals = []

        def send():
            sent = engine.sim.now
            engine.dataplane.send(
                Packet("client", "server", 800),
                lambda p: arrivals.append(engine.sim.now - sent))

        engine.sim.at(1.0, send)
        engine.run(until=1.5)
        assert self.chains(engine) == {"client": ("server",), "server": ()}
        assert arrivals == [pytest.approx(0.010, rel=0.02)]
        shaping = engine.tcals["client"].shaping_for("server")
        assert shaping.htb.rate == 100 * MBPS
        # The swap at t=2 reconfigures that chain in place...
        engine.run(until=3.0)
        assert engine.tcals["client"].shaping_for("server") is shaping
        assert shaping.htb.rate == 20 * MBPS
        assert shaping.netem.latency == pytest.approx(0.045)
        # ... and a chain first used after it starts from the new state.
        engine.dataplane.send(Packet("server", "client", 800),
                              lambda p: None)
        reverse = engine.tcals["server"].shaping_for("client")
        path = engine.current_state.collapsed.path("server", "client")
        assert (reverse.netem.latency, reverse.htb.rate) == \
            (path.latency, path.bandwidth)
        assert reverse.netem.latency == pytest.approx(0.045)

    def test_first_fluid_flow_builds_the_chain(self):
        engine = self.flapping_engine(enforce_bandwidth_sharing=True, seed=2)
        engine.start_flow("f", "client", "server", start_time=2.5)
        engine.run(until=2.4)
        assert self.chains(engine) == {"client": (), "server": ()}
        engine.run(until=3.9)
        assert self.chains(engine) == {"client": ("server",), "server": ()}
        assert engine.fluid.mean_throughput("f", 3.0, 3.9) == \
            pytest.approx(20 * MBPS, rel=0.15)

    def test_a_destination_that_leaves_loses_its_chain(self):
        from repro.netstack.packet import Packet
        engine = self.flapping_engine()
        outcomes = []

        def send(source, destination):
            engine.dataplane.send(
                Packet(source, destination, 800),
                lambda p: outcomes.append("delivered"),
                on_drop=lambda p: outcomes.append("dropped"))

        send("client", "server")
        first = engine.tcals["client"].shaping_for("server")
        engine.run(until=5.0)                   # the link left at t=4
        assert self.chains(engine) == {"client": (), "server": ()}
        assert engine.tcals["client"].qdisc.classes() == {}
        assert not engine.tcals["client"].has_destination("server")
        assert not engine.dataplane.reachable("client", "server")
        send("client", "server")
        send("server", "client")
        assert outcomes == ["delivered", "dropped", "dropped"]
        assert self.chains(engine) == {"client": (), "server": ()}
        engine.run(until=7.0)                   # ... and rejoined at t=6
        assert self.chains(engine) == {"client": (), "server": ()}
        send("client", "server")
        again = engine.tcals["client"].shaping_for("server")
        assert again is not first
        assert again.netem.latency == pytest.approx(0.010)
        engine.run(until=8.0)
        assert outcomes[-1] == "delivered"

    def test_swap_touches_the_chains_that_exist_and_resets_throttling(self):
        from repro import telemetry
        engine = self.flapping_engine()
        shaping = engine.tcals["client"].shaping_for("server")
        engine.cores["client"].enforce("server", bandwidth=1 * MBPS, loss=0.3)
        assert (shaping.htb.rate, shaping.netem.loss) == (1 * MBPS, 0.3)
        telemetry.metrics.clear()
        telemetry.enable()
        try:
            engine.run(until=3.0)
            counters = telemetry.metrics.snapshot()
        finally:
            telemetry.disable()
            telemetry.metrics.clear()
        assert counters["engine.state_swaps"]["value"] == 1
        assert counters["engine.chains_touched"]["value"] == 1
        assert (shaping.htb.rate, shaping.netem.loss) == (20 * MBPS, 0.0)
        assert self.chains(engine) == {"client": ("server",), "server": ()}

    def test_enforce_and_restore_towards_a_never_used_destination(self):
        engine = self.flapping_engine()
        core, tcal = engine.cores["client"], engine.tcals["client"]
        # Towards a reachable destination the chain appears carrying its
        # path properties, and only what differs from them is written.
        core.restore("server", bandwidth=100 * MBPS, loss=0.0)
        assert tcal.destinations() == ("server",)
        assert tcal.netlink_calls == 0
        assert tcal.shaping_for("server").netem.latency == \
            pytest.approx(0.010)
        engine.cores["server"].enforce("client", bandwidth=5 * MBPS)
        assert engine.tcals["server"].shaping_for("client").htb.rate == \
            5 * MBPS
        assert engine.tcals["server"].netlink_calls == 1
        # Towards an unreachable one: nothing, as before.
        core.enforce("ghost", bandwidth=5 * MBPS, loss=0.1)
        core.restore("ghost", bandwidth=5 * MBPS, loss=0.0)
        assert tcal.destinations() == ("server",)
        assert tcal.netlink_calls == 0


class TestMetadataBehaviour:
    def test_single_machine_no_network_metadata(self):
        engine = EmulationEngine(dumbbell(2).compile().topology,
                                 config=EngineConfig(machines=1, seed=2))
        engine.start_flow("f0", "client0", "server0")
        engine.run(until=5.0)
        assert engine.total_metadata_wire_bytes() == 0

    def test_metadata_grows_with_machines(self):
        def run(machines):
            engine = EmulationEngine(
                dumbbell(4, shared_bandwidth=50 * MBPS).compile().topology,
                config=EngineConfig(machines=machines, seed=2))
            for index in range(4):
                engine.start_flow(f"f{index}", f"client{index}",
                                  f"server{index}")
            engine.run(until=5.0)
            return engine.total_metadata_wire_bytes()

        two = run(2)
        four = run(4)
        assert two > 0
        assert four > two

    def test_loop_disabled_means_no_loops(self):
        engine = EmulationEngine(
            point_to_point(1e6).compile().topology,
            config=EngineConfig(enforce_bandwidth_sharing=False))
        engine.run(until=2.0)
        assert all(manager.loops == 0
                   for manager in engine.managers.values())

    def test_managers_converge_to_same_allocation(self):
        """Decentralization: all managers enforce consistent shares."""
        engine = EmulationEngine(
            dumbbell(2, shared_bandwidth=50 * MBPS).compile().topology,
            config=EngineConfig(machines=2, seed=2))
        engine.start_flow("f0", "client0", "server0")
        engine.start_flow("f1", "client1", "server1")
        engine.run(until=10.0)
        rates = []
        for source, destination in (("client0", "server0"),
                                    ("client1", "server1")):
            tcal = engine.tcals[source]
            rates.append(tcal.shaping_for(destination).htb.rate)
        assert sum(rates) == pytest.approx(50 * MBPS, rel=0.15)
        assert rates[0] == pytest.approx(rates[1], rel=0.15)
