"""Baseline emulators: the full-state testbed — bare metal, with the
Mininet switch, with Maxinet's controlled switches — and Trickle."""

import pytest

from repro.baselines import (
    BareMetalTestbed,
    MaxinetEmulator,
    TrickleShaper,
    mininet,
)
from repro.baselines.trickle import (
    TRICKLE_DEFAULT_BUFFER_BYTES,
    TRICKLE_TUNED_BUFFER_BYTES,
)
from repro.netstack.packet import Packet
from repro.scenario.topologies import point_to_point, star

MBPS = 1e6


def mininet_testbed(topology, **options):
    """Mininet: the full-state testbed with the Mininet switch."""
    return BareMetalTestbed(topology, switch_model=mininet.switch, **options)


class TestBareMetal:
    def test_bulk_flow_fills_link(self):
        testbed = BareMetalTestbed(
            point_to_point(100 * MBPS).compile().topology, seed=1)
        testbed.start_flow("f", "client", "server")
        testbed.run(until=10.0)
        assert testbed.fluid.mean_throughput("f", 4.0, 10.0) == \
            pytest.approx(100 * MBPS, rel=0.05)

    def test_packet_latency_has_no_overhead(self):
        testbed = BareMetalTestbed(
            point_to_point(1e9, latency=0.020).compile().topology, seed=1)
        arrivals = []
        testbed.dataplane.send(Packet("client", "server", 800),
                               lambda p: arrivals.append(testbed.sim.now))
        testbed.run(until=1.0)
        assert arrivals[0] == pytest.approx(0.020, rel=0.001)


class TestMininet:
    def test_bulk_accuracy_close_to_baremetal(self):
        """Figure 5: long-lived flows are accurate under Mininet."""
        emulator = mininet_testbed(
            point_to_point(100 * MBPS).compile().topology, seed=1)
        emulator.start_flow("f", "client", "server")
        emulator.run(until=10.0)
        assert emulator.fluid.mean_throughput("f", 4.0, 10.0) == \
            pytest.approx(100 * MBPS, rel=0.05)

    def test_switch_state_grows_with_connections(self):
        emulator = mininet_testbed(
            point_to_point(100 * MBPS, latency=0.002).compile().topology,
            seed=1)
        arrivals = []
        for index in range(30):
            emulator.network.send(
                Packet("client", "server", 800, kind=f"conn{index}"),
                lambda p: arrivals.append(emulator.sim.now))
        emulator.run(until=5.0)
        switch = emulator.network.switches["s0"]
        assert len(switch.connections) == 30

    def test_per_packet_delay_exceeds_baremetal(self):
        baremetal = BareMetalTestbed(
            point_to_point(1e9, latency=0.010).compile().topology, seed=1)
        emulated = mininet_testbed(
            point_to_point(1e9, latency=0.010).compile().topology, seed=1)
        results = {}
        for name, system in (("bare", baremetal), ("mn", emulated)):
            arrivals = []
            system.dataplane.send(Packet("client", "server", 800),
                                  lambda p: arrivals.append(system.sim.now))
            system.run(until=1.0)
            results[name] = arrivals[0]
        assert results["mn"] > results["bare"]


class TestMaxinet:
    def test_first_packet_pays_controller_round_trip(self):
        emulator = MaxinetEmulator(
            point_to_point(1e9, latency=0.005).compile().topology, seed=1)
        arrivals = []
        emulator.dataplane.send(
            Packet("client", "server", 800, kind="flow-a"),
            lambda p: arrivals.append(emulator.sim.now))
        # Stay within the installed rule's lifetime for the second packet.
        emulator.run(until=emulator.controller.rule_timeout * 0.5)
        sent_at = emulator.sim.now
        emulator.dataplane.send(
            Packet("client", "server", 800, kind="flow-a"),
            lambda p: arrivals.append(emulator.sim.now))
        emulator.run(until=2.0)
        first_delay = arrivals[0]
        second_delay = arrivals[1] - sent_at
        # First packet consults the controller; the second hits the rule.
        assert first_delay > 0.005 + emulator.controller.base_rtt * 0.9
        assert second_delay < first_delay
        assert emulator.controller.packet_ins == 1

    def test_controller_queueing_under_load(self):
        emulator = MaxinetEmulator(
            star([f"n{i}" for i in range(8)],
                 latency=0.001).compile().topology, seed=1)
        arrivals = []
        for index in range(8):
            emulator.dataplane.send(
                Packet(f"n{index}", f"n{(index + 1) % 8}", 800,
                       kind=f"flow{index}"),
                lambda p: arrivals.append(emulator.sim.now))
        emulator.run(until=2.0)
        assert emulator.controller.packet_ins == 8
        # Shared controller serializes: the last arrival waited on others.
        assert max(arrivals) - min(arrivals) > emulator.controller.service_time * 4

    def test_rtt_error_larger_than_kollaps_scale(self):
        """Maxinet's deviation is milliseconds, not microseconds (Table 4)."""
        emulator = MaxinetEmulator(
            point_to_point(1e9, latency=0.010).compile().topology, seed=1)
        arrivals = []
        emulator.dataplane.send(Packet("client", "server", 800, kind="f"),
                                lambda p: arrivals.append(emulator.sim.now))
        emulator.run(until=1.0)
        assert arrivals[0] - 0.010 > 1e-3


class TestTrickle:
    def test_default_buffer_grossly_inaccurate(self):
        """Table 2's default rows: overshoot of tens of percent or more."""
        for rate in (128e3, 256e3, 512e3, 128e6):
            shaper = TrickleShaper(rate)
            assert shaper.relative_error() > 0.35

    def test_tuned_buffer_accurate(self):
        for rate in (128e3, 512e3, 128e6, 1e9):
            shaper = TrickleShaper(
                rate, send_buffer_bytes=TRICKLE_TUNED_BUFFER_BYTES)
            assert shaper.relative_error() == pytest.approx(0.02, abs=0.005)

    def test_link_rate_clamps_overshoot(self):
        shaper = TrickleShaper(4e9, link_rate=4.2e9)
        assert shaper.achieved_rate() <= 4.2e9

    def test_error_deterministic_per_rate(self):
        assert TrickleShaper(128e3).achieved_rate() == \
            TrickleShaper(128e3).achieved_rate()

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            TrickleShaper(0.0)
