"""Property-based tests for the scenario DSL compiler.

Random scenarios over a fixed topology must compile into event schedules
that (a) the snapshot pre-computation accepts, (b) preserve every
invariant the engine relies on, and (c) keep the final topology
structurally valid.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.scenario.topologies import star
from repro.scenario.thunderstorm import ThunderstormError, compile_scenario
from repro.topology import Topology

LEAVES = ["a", "b", "c", "d"]


def base_topology() -> Topology:
    return star(LEAVES, bandwidth=100e6, latency=0.002).compile().topology


# --------------------------------------------------------------- strategies
times = st.integers(1, 500)
leaves = st.sampled_from(LEAVES)
properties = st.sampled_from(
    ["latency=5ms", "jitter=1ms", "loss=1%", "up=10Mbps down=10Mbps",
     "latency=20ms loss=0.5%"])


@st.composite
def set_directive(draw):
    return f"at {draw(times)} set link {draw(leaves)}--hub " \
           f"{draw(properties)}"


@st.composite
def flap_directive(draw):
    return (f"at {draw(times)} flap link {draw(leaves)}--hub "
            f"for {draw(st.integers(1, 20))}")


@st.composite
def periodic_directive(draw):
    start = draw(st.integers(0, 100))
    stop = start + draw(st.integers(1, 200))
    step = draw(st.integers(1, 50))
    return (f"from {start} to {stop} every {step} set link "
            f"{draw(leaves)}--hub {draw(properties)}")


scenario_lines = st.lists(
    st.one_of(set_directive(), flap_directive(), periodic_directive()),
    min_size=1, max_size=8)


class TestScenarioProperties:
    @given(scenario_lines)
    @settings(max_examples=40, deadline=None)
    def test_compiles_and_snapshots(self, lines):
        topology = base_topology()
        script = "\n".join(lines)
        try:
            schedule = compile_scenario(script, topology)
        except ThunderstormError:
            # Random flap overlaps can legitimately conflict (flapping a
            # link that an overlapping flap already removed).
            return
        snapshots = schedule.snapshots(topology)
        # Snapshot times are the sorted distinct event times plus t=0.
        times_seen = [time for time, _topology in snapshots]
        assert times_seen == sorted(times_seen)
        assert times_seen[0] == 0.0
        event_times = sorted({event.time for event in schedule})
        assert times_seen[1:] == event_times
        # Every snapshot is structurally valid: no link outlives a node.
        for _time, snapshot in snapshots:
            assert snapshot.services
            assert all(snapshot.has_node(link.source)
                       and snapshot.has_node(link.destination)
                       for link in snapshot.links())

    @given(scenario_lines)
    @settings(max_examples=40, deadline=None)
    def test_base_topology_untouched(self, lines):
        topology = base_topology()
        reference = base_topology()
        try:
            compile_scenario("\n".join(lines), topology)
        except ThunderstormError:
            pass
        # Compilation replays on a shadow copy; the caller's topology
        # must never be mutated.
        assert sorted(link.key for link in topology.links()) == \
            sorted(link.key for link in reference.links())
        for link in topology.links():
            assert link.properties == \
                reference.get_link(*link.key).properties

    @given(st.lists(flap_directive(), min_size=1, max_size=4, unique=True))
    @settings(max_examples=40, deadline=None)
    def test_flaps_restore_final_state(self, lines):
        topology = base_topology()
        try:
            schedule = compile_scenario("\n".join(lines), topology)
        except ThunderstormError:
            return
        _time, final = schedule.snapshots(topology)[-1]
        # After all flaps complete, every link is back with its original
        # bandwidth.
        for leaf in LEAVES:
            assert final.get_link(leaf, "hub").properties.bandwidth == \
                pytest.approx(100e6)

    @given(set_directive())
    @settings(max_examples=20, deadline=None)
    def test_single_set_changes_exactly_one_pair(self, line):
        topology = base_topology()
        schedule = compile_scenario(line, topology)
        _time, mutated = schedule.snapshots(topology)[-1]
        changed = 0
        for link in mutated.links():
            if link.properties != topology.get_link(*link.key).properties:
                changed += 1
        # A bidirectional set touches the two mirror links (or none if
        # the random values equal the existing ones).
        assert changed in (0, 2)
