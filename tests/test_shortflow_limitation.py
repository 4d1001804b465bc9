"""§6 limitation: flows shorter than one emulation-loop iteration.

The paper is explicit that Kollaps "will either fail to capture and update
the bandwidth sharing for short flows that span a time interval shorter
than a single iteration, or would react after the flow has ended".  This
test *reproduces the limitation* (it is behaviour, not a bug): a flow that
finishes within one loop period never has its share enforced, while a flow
spanning several periods does.
"""

import pytest

from repro.core import EmulationEngine, EngineConfig
from repro.scenario.topologies import dumbbell

MBPS = 1e6


def build_engine(loop_period):
    return EmulationEngine(
        dumbbell(2, shared_bandwidth=50 * MBPS,
                 access_bandwidth=200 * MBPS).compile().topology,
        config=EngineConfig(machines=1, seed=9, loop_period=loop_period))


class TestShortFlowLimitation:
    def test_sub_period_flow_escapes_enforcement(self):
        engine = build_engine(loop_period=0.5)
        # A long-lived flow first converges to its share of the bottleneck.
        engine.start_flow("long", "client0", "server0")
        engine.run(until=5.0)
        enforcements_before = engine.managers["host-0"].enforcements
        # A 2 Mbit burst at 200 Mb/s lasts ~10 ms << the 500 ms loop.
        engine.start_flow("burst", "client1", "server1", size_bits=2e6)
        engine.run(until=5.4)  # still before the next loop tick
        flow = engine.fluid.flows["burst"]
        assert flow.finished
        # The burst's htb class was never updated by the loop: the rate is
        # still the initial collapsed-path bandwidth (50 Mb/s), not a
        # contended share.
        assert engine.tcals["client1"].shaping_for("server1").htb.rate == \
            pytest.approx(50 * MBPS)

    def test_multi_period_flow_gets_enforced(self):
        engine = build_engine(loop_period=0.05)
        engine.start_flow("long", "client0", "server0")
        engine.start_flow("other", "client1", "server1")
        engine.run(until=5.0)
        # Both flows now hold enforced shares summing to the bottleneck.
        rates = [engine.tcals["client0"].shaping_for("server0").htb.rate,
                 engine.tcals["client1"].shaping_for("server1").htb.rate]
        assert sum(rates) == pytest.approx(50 * MBPS, rel=0.15)

    def test_shorter_loop_reacts_faster(self):
        """The reaction-time knob the paper's future work targets."""
        def time_to_throttle(loop_period):
            engine = build_engine(loop_period)
            engine.start_flow("long", "client0", "server0")
            engine.run(until=3.0)
            engine.start_flow("late", "client1", "server1")
            engine.run(until=8.0)
            tcal = engine.tcals["client0"]
            series = engine.fluid.series("long")
            for when, rate in series:
                if when > 3.0 and rate < 30 * MBPS:
                    return when - 3.0
            return float("inf")

        fast = time_to_throttle(0.05)
        slow = time_to_throttle(1.0)
        assert fast < slow
