"""The fluid step: pinned trajectories, invalidation, columnar history."""

import json
from itertools import groupby
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from fluid_trajectories import MBPS, trajectories

from repro import telemetry
from repro.netstack.fluid import (
    FluidEngine,
    FluidFlow,
    GroundTruthConstraints,
)
from repro.scenario import link_up, node_join, node_leave, set_link
from repro.scenario.results import Metrics
from repro.scenario.topologies import point_to_point
from repro.sim import RngRegistry, Simulator

GOLDEN = Path(__file__).parent / "golden" / "fluid_trajectories.json"
DT = 0.010


def test_every_float_of_every_step_matches_the_golden():
    """Delivered rate, ``cwnd`` and ``rtt`` after each step, as the parent
    of the per-flow-entry integrator computed them — byte for byte."""
    golden = json.loads(GOLDEN.read_text())
    recorded = trajectories()
    for system, flows in recorded.items():
        assert sorted(flows) == sorted(golden[system])
        for key, columns in flows.items():
            for name, values in columns.items():
                assert values == golden[system][key][name], \
                    f"{system}/{key}/{name}"
    assert len(recorded["kollaps"]["reno"]["delivered"]) == 301


def shaped_pair(*events, latency=0.010):
    builder = point_to_point(20 * MBPS, latency=latency)
    for time, *changes in events:
        builder.at(time, *changes)
    return builder.deploy(machines=2, seed=3).compile().engine()


class TestInvalidation:
    """What an entry caches moves when, and only when, a state does."""

    def test_latency_swap_moves_rtt_at_the_very_next_step(self):
        engine = shaped_pair(
            (1.0, set_link("client", "s0", latency=0.030)))
        flow = engine.start_flow("f", "client", "server")
        engine.run(until=0.995)
        assert flow.rtt == pytest.approx(0.020)
        # The swap (priority -10) precedes the step at the same instant.
        engine.run(until=1.0 + DT / 2)
        assert flow.rtt == pytest.approx(0.070)

    def test_reinstalled_topology_moves_rtt_at_the_very_next_step(self):
        sim = Simulator()
        provider = GroundTruthConstraints(
            point_to_point(20 * MBPS, latency=0.010).compile().topology)
        engine = FluidEngine(sim, provider, rng=RngRegistry(3))
        flow = engine.add_flow(FluidFlow("f", "client", "server"))
        sim.run(until=0.5)
        assert flow.rtt == pytest.approx(0.020)
        provider.install_topology(
            point_to_point(5 * MBPS, latency=0.040).compile().topology)
        assert flow.rtt == pytest.approx(0.020)     # nothing stepped yet
        sim.run(until=0.5 + 2 * DT)
        assert flow.rtt == pytest.approx(0.080)
        assert engine.throughput("f") <= 5 * MBPS

    def test_node_leave_cuts_the_route_and_join_restores_it(self):
        engine = shaped_pair(
            (1.0, node_leave("server")),
            (2.0, node_join("server"),
             link_up("s0", "server", latency=0.005, up=20 * MBPS)))
        engine.start_flow("f", "client", "server", protocol="udp",
                          demand=5 * MBPS)
        entry = engine.fluid._entries["f"]
        engine.run(until=0.995)
        chain = entry.shaping
        assert entry.links != () and entry.loss == 0.0
        assert chain is engine.tcals["client"].shaping_for("server")
        engine.run(until=1.5)
        assert entry.links == () and entry.loss == 1.0
        assert entry.shaping is None
        assert engine.fluid.throughput("f") == 0.0
        engine.run(until=3.0)
        assert entry.links != () and entry.loss == 0.0
        assert entry.shaping is engine.tcals["client"].shaping_for("server")
        assert entry.shaping is not chain           # a new chain, found
        assert engine.fluid.mean_throughput("f", 0.0, 1.0) == 5 * MBPS
        assert engine.fluid.mean_throughput("f", 1.0, 2.0) == 0.0
        assert engine.fluid.mean_throughput("f", 2.0, 3.0) == 5 * MBPS

    def test_a_key_used_again_continues_its_column(self):
        engine = shaped_pair()
        engine.start_flow("f", "client", "server", protocol="udp",
                          demand=4 * MBPS)
        engine.sim.at(0.5, engine.stop_flow, "f")
        engine.sim.at(1.0, lambda: engine.start_flow(
            "f", "client", "server", protocol="udp", demand=2 * MBPS))
        engine.run(until=1.5)
        series = engine.fluid.series("f")
        times = [time for time, _rate in series]
        assert times == pytest.approx(
            [index * DT for index in range(len(times))])
        # One column, three stretches: the first flow, the gap, the second.
        stretches = [(rate, len(list(steps))) for rate, steps
                     in groupby(rate for _time, rate in series)]
        assert [rate for rate, _steps in stretches] == \
            [4 * MBPS, 0.0, 2 * MBPS]
        assert all(49 <= steps <= 51 for _rate, steps in stretches)
        assert engine.fluid.mean_throughput("f", 0.6, 0.9) == 0.0

    def test_a_series_taken_mid_run_does_not_change_as_the_run_advances(
            self):
        engine = shaped_pair()
        engine.start_flow("f", "client", "server", protocol="udp",
                          demand=4 * MBPS)
        engine.start_flow("g", "client", "server", protocol="udp",
                          demand=2 * MBPS, start_time=0.2)
        engine.sim.at(0.5, engine.stop_flow, "f")
        engine.run(until=0.3)
        fluid = engine.fluid
        taken = {key: fluid.series(key) for key in ("f", "g", "nobody")}
        before = {key: (series.times.tobytes(), series.values.tobytes())
                  for key, series in taken.items()}
        engine.run(until=1.0)
        for key, series in taken.items():
            assert (series.times.tobytes(),
                    series.values.tobytes()) == before[key], key
            later = fluid.series(key)
            assert len(later) > len(series)
            assert list(later)[:len(series)] == list(series)
        # Once the run stops stepping, a series is the engine's columns,
        # padded ones excepted.
        assert fluid.series("g").times is fluid._times
        assert fluid.series("g").values is fluid._rates["g"]
        assert fluid.series("f").values is not fluid._rates["f"]
        assert len(fluid._rates["f"]) < len(fluid._times)

    def test_unknown_key_reads_as_silence(self):
        engine = shaped_pair()
        engine.run(until=0.1)
        assert engine.fluid.mean_throughput("nobody", 0.0, 1.0) == 0.0
        series = engine.fluid.series("nobody")
        assert len(series) >= 10
        assert all(rate == 0.0 for _time, rate in series)


class TestRepeatedSteps:
    """A step that repeats the last one's outputs is counted as such."""

    @pytest.fixture(autouse=True)
    def counting(self):
        telemetry.metrics.clear()
        telemetry.enable()
        yield
        telemetry.disable()
        telemetry.metrics.clear()

    @staticmethod
    def steps(*flows, until=1.0):
        engine = shaped_pair()
        for key, options in flows:
            engine.start_flow(key, "client", "server", **options)
        engine.run(until=until - DT / 2)
        return (telemetry.metrics.counter("fluid.steps").value,
                telemetry.metrics.counter("fluid.steps_repeated").value)

    def test_no_active_flow_repeats_nothing(self):
        assert self.steps() == (100, 0)

    def test_a_converged_flow_repeats_from_its_third_step(self):
        # Step 0 solves, step 1 reuses that solve and leaves the plan.
        assert self.steps(("f", {"protocol": "udp", "demand": 5 * MBPS})) \
            == (100, 98)

    def test_a_growing_window_repeats_once_it_meets_the_chain_rate(self):
        assert self.steps(("f", {"congestion_control": "reno"}),
                          until=2.0) == (200, 189)


@pytest.fixture(scope="module")
def history():
    """A 2 s run: ``early`` throughout, ``late`` from 0.5 s until it is
    stopped at 1.5 s, ``sized`` until its transfer completes."""
    engine = shaped_pair()
    engine.start_flow("early", "client", "server", congestion_control="reno")
    engine.start_flow("late", "client", "server", start_time=0.5)
    engine.start_flow("sized", "server", "client", size_bits=3e6)
    engine.sim.at(1.5, engine.stop_flow, "late")
    engine.run(until=2.0)
    return engine.fluid


def brute_force_mean(series, start, end):
    samples = [rate for time, rate in series if start <= time < end]
    return sum(samples) / len(samples) if samples else 0.0


def window_bounds():
    """Anywhere around the run, or exactly on one of its step times."""
    on_a_step = st.integers(0, 199).map(lambda index: ("step", index))
    anywhere = st.floats(-0.5, 2.5, allow_nan=False).map(
        lambda value: ("time", value))
    return st.one_of(on_a_step, anywhere, st.just(("time", float("inf"))))


class TestHistory:
    @settings(max_examples=300, deadline=None)
    @given(key=st.sampled_from(["early", "late", "sized", "nobody"]),
           first=window_bounds(), second=window_bounds())
    def test_window_mean_is_the_brute_force_mean_exactly(
            self, history, key, first, second):
        series = history.series(key)
        times = [time for time, _rate in series]
        start, end = (times[value] if kind == "step" else value
                      for kind, value in (first, second))
        expected = brute_force_mean(series, start, end)
        assert history.mean_throughput(key, start, end) == expected
        exported = Metrics(key=key, kind="flow", throughput=tuple(series))
        assert exported.mean_throughput(start, end) == expected

    def test_the_fixture_has_the_shapes_the_property_needs(self, history):
        late = [rate > 0.0 for _time, rate in history.series("late")]
        assert [carrying for carrying, _steps in groupby(late)] == \
            [False, True, False]            # starts late, is stopped
        sized = [rate > 0.0 for _time, rate in history.series("sized")]
        assert [carrying for carrying, _steps in groupby(sized)] == \
            [True, False]                   # finishes its transfer
        assert history.flows["sized"].finished
        assert len(history.series("early")) >= 200
        # Empty windows, and windows wholly outside the run.
        assert history.mean_throughput("early", 1.0, 1.0) == 0.0
        assert history.mean_throughput("early", 1.5, 0.5) == 0.0
        assert history.mean_throughput("early", 5.0, 9.0) == 0.0
        assert history.mean_throughput("early", -2.0, -1.0) == 0.0

    def test_default_window_is_the_whole_run(self, history):
        assert history.mean_throughput("early") == brute_force_mean(
            history.series("early"), 0.0, float("inf"))
