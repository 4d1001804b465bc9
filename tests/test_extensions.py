"""The §6/§7 extensions: interactivity, time dilation, event-driven
metadata."""

import pytest

from repro.core import EmulationEngine, EngineConfig
from repro.topology import DynamicEvent, EventAction
from repro.scenario.topologies import dumbbell, point_to_point

MBPS = 1e6


class TestInteractivity:
    def test_online_event_applies_immediately(self):
        engine = EmulationEngine(point_to_point(50 * MBPS).compile().topology,
                                 config=EngineConfig(machines=1, seed=3))
        engine.start_flow("f", "client", "server")
        engine.run(until=5.0)
        engine.apply_event_online(DynamicEvent(
            time=engine.sim.now, action=EventAction.SET_LINK,
            origin="client", destination="s0",
            changes={"bandwidth": 5 * MBPS}))
        engine.run(until=10.0)
        assert engine.fluid.mean_throughput("f", 7.0, 10.0) == \
            pytest.approx(5 * MBPS, rel=0.15)

    def test_online_event_updates_latency_plane(self):
        from repro.netstack.packet import Packet
        engine = EmulationEngine(
            point_to_point(1e9, latency=0.010).compile().topology,
            config=EngineConfig(enforce_bandwidth_sharing=False))
        engine.run(until=1.0)
        engine.apply_event_online(DynamicEvent(
            time=engine.sim.now, action=EventAction.SET_LINK,
            origin="client", destination="s0", changes={"latency": 0.050}))
        arrivals = []
        engine.dataplane.send(Packet("client", "server", 800),
                              lambda p: arrivals.append(engine.sim.now - 1.0))
        engine.run(until=2.0)
        assert arrivals[0] == pytest.approx(0.055, rel=0.02)


class TestTimeDilation:
    def test_overprovisioned_link_rejected(self):
        # 100G on a 40G cluster
        topology = point_to_point(100e9).compile().topology
        with pytest.raises(ValueError):
            EmulationEngine(topology, config=EngineConfig())

    def test_time_dilation_admits_it(self):
        topology = point_to_point(100e9).compile().topology
        engine = EmulationEngine(topology,
                                 config=EngineConfig(time_dilation=4.0))
        engine.start_flow("f", "client", "server")
        engine.run(until=5.0)
        assert engine.fluid.mean_throughput("f", 2.0, 5.0) == \
            pytest.approx(100e9, rel=0.10)

    def test_disabled_check_admits_anything(self):
        topology = point_to_point(100e9).compile().topology
        EmulationEngine(topology, config=EngineConfig(
            enforce_physical_limits=False))

    def test_dilation_below_one_rejected(self):
        with pytest.raises(ValueError):
            EmulationEngine(point_to_point(1e6).compile().topology,
                            config=EngineConfig(time_dilation=0.5))

    def test_dynamic_states_also_checked(self):
        from repro.topology import EventSchedule
        schedule = EventSchedule([DynamicEvent(
            time=5.0, action=EventAction.SET_LINK, origin="client",
            destination="s0", changes={"bandwidth": 100e9})])
        with pytest.raises(ValueError):
            EmulationEngine(point_to_point(1e6).compile().topology, schedule,
                            config=EngineConfig())


class TestEventDrivenMetadata:
    def run_engine(self, on_change_only: bool) -> int:
        engine = EmulationEngine(
            dumbbell(2, shared_bandwidth=50 * MBPS).compile().topology,
            config=EngineConfig(machines=2, seed=4,
                                metadata_on_change_only=on_change_only))
        engine.start_flow("f0", "client0", "server0")
        engine.start_flow("f1", "client1", "server1")
        engine.run(until=10.0)
        return (engine.total_metadata_wire_bytes(),
                engine.fluid.mean_throughput("f0", 6.0, 10.0)
                + engine.fluid.mean_throughput("f1", 6.0, 10.0))

    def test_change_only_reduces_traffic(self):
        periodic_bytes, periodic_rate = self.run_engine(False)
        change_bytes, change_rate = self.run_engine(True)
        # Steady long-lived flows: most periodic reports are redundant.
        assert change_bytes < periodic_bytes * 0.8
        # Emulation fidelity preserved.
        assert change_rate == pytest.approx(periodic_rate, rel=0.10)
        assert change_rate == pytest.approx(50 * MBPS, rel=0.10)
