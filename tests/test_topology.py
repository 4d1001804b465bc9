"""Topology model, description front-ends and dynamic event schedules."""

import pytest

from repro.scenario import Scenario
from repro.topology import (
    Bridge,
    DynamicEvent,
    EventAction,
    EventSchedule,
    Link,
    LinkProperties,
    Service,
    Topology,
    TopologyError,
)

LISTING_1_AND_2 = """
experiment:
  services:
    name: c1
    image: "iperf"
    name: sv
    image: "nginx"
    replicas: 2
  bridges:
    name: s1
    name: s2
  links:
    orig: c1
    dest: s1
    latency: 10
    up: 10Mbps
    down: 10Mbps
    jitter: 0.25
    orig: s1
    dest: s2
    latency: 20
    up: 100Mbps
    down: 100Mbps
    orig: sv
    dest: s2
    latency: 5
    up: 50Mbps
    down: 50Mbps
dynamic:
  orig: c1
  dest: s1
  jitter: 0.5
  time: 120
  action: leave
  name: s1
  time: 200
  action: join
  orig: c1
  dest: s2
  up: 100Mbps
  down: 100Mbps
  latency: 10
  time: 210
  action: leave
  name: sv
  time: 240
"""


def figure1_description():
    """The dict form of Figure 1's target topology."""
    return {
        "experiment": {
            "services": [
                {"name": "c1", "image": "iperf"},
                {"name": "sv", "image": "nginx", "replicas": 2},
            ],
            "bridges": [{"name": "s1"}, {"name": "s2"}],
            "links": [
                {"orig": "c1", "dest": "s1", "latency": 10,
                 "up": "10Mbps", "down": "10Mbps"},
                {"orig": "s1", "dest": "s2", "latency": 20,
                 "up": "100Mbps", "down": "100Mbps"},
                {"orig": "sv", "dest": "s2", "latency": 5,
                 "up": "50Mbps", "down": "50Mbps"},
            ],
        },
    }


class TestLinkProperties:
    def test_validation_rejects_negative_latency(self):
        with pytest.raises(TopologyError):
            LinkProperties(latency=-1.0)

    def test_validation_rejects_zero_bandwidth(self):
        with pytest.raises(TopologyError):
            LinkProperties(bandwidth=0.0)

    def test_validation_rejects_loss_above_one(self):
        with pytest.raises(TopologyError):
            LinkProperties(loss=1.5)

    def test_validation_rejects_unknown_distribution(self):
        with pytest.raises(TopologyError):
            LinkProperties(jitter_distribution="levy")

    def test_describe_mentions_rate_and_latency(self):
        text = LinkProperties(latency=0.010, bandwidth=10e6).describe()
        assert "10Mbps" in text and "10ms" in text


class TestTopologyModel:
    def test_duplicate_names_rejected(self):
        topology = Topology()
        topology.add_service(Service("a"))
        with pytest.raises(TopologyError):
            topology.add_bridge(Bridge("a"))

    def test_bidirectional_link_creates_two(self):
        topology = Topology()
        topology.add_service(Service("a"))
        topology.add_service(Service("b"))
        created = topology.add_link("a", "b", LinkProperties(bandwidth=1e6))
        assert len(created) == 2
        assert topology.get_link("a", "b").destination == "b"
        assert topology.get_link("b", "a").destination == "a"

    def test_asymmetric_up_down(self):
        topology = Topology()
        topology.add_service(Service("a"))
        topology.add_service(Service("b"))
        topology.add_link("a", "b", LinkProperties(bandwidth=10e6),
                          down_properties=LinkProperties(bandwidth=1e6))
        assert topology.get_link("a", "b").properties.bandwidth == 10e6
        assert topology.get_link("b", "a").properties.bandwidth == 1e6

    def test_link_to_unknown_node_rejected(self):
        topology = Topology()
        topology.add_service(Service("a"))
        with pytest.raises(TopologyError):
            topology.add_link("a", "ghost", LinkProperties())

    def test_self_loop_rejected(self):
        topology = Topology()
        topology.add_service(Service("a"))
        with pytest.raises(TopologyError):
            topology.add_link("a", "a", LinkProperties())

    def test_replicas_expand_to_container_names(self):
        service = Service("sv", replicas=3)
        assert service.container_names() == ["sv.0", "sv.1", "sv.2"]

    def test_single_replica_keeps_bare_name(self):
        assert Service("c1").container_names() == ["c1"]

    def test_remove_bridge_drops_attached_links(self):
        topology = Topology()
        topology.add_service(Service("a"))
        topology.add_bridge(Bridge("s"))
        topology.add_link("a", "s", LinkProperties())
        topology.remove_bridge("s")
        assert len(list(topology.links())) == 0

    def test_update_link_changes_one_field(self):
        topology = Topology()
        topology.add_service(Service("a"))
        topology.add_service(Service("b"))
        topology.add_link("a", "b", LinkProperties(latency=0.01, bandwidth=1e6))
        topology.update_link("a", "b", jitter=0.002)
        properties = topology.get_link("a", "b").properties
        assert properties.jitter == 0.002
        assert properties.latency == 0.01  # untouched

    def test_copy_is_independent(self):
        topology = Topology()
        topology.add_service(Service("a"))
        topology.add_service(Service("b"))
        topology.add_link("a", "b", LinkProperties(bandwidth=1e6))
        clone = topology.copy()
        clone.update_link("a", "b", bandwidth=5e6)
        assert topology.get_link("a", "b").properties.bandwidth == 1e6

    def test_copy_preserves_link_ids(self):
        topology = Topology()
        topology.add_service(Service("a"))
        topology.add_service(Service("b"))
        topology.add_link("a", "b", LinkProperties())
        original_ids = sorted(link.link_id for link in topology.links())
        clone_ids = sorted(link.link_id for link in topology.copy().links())
        assert original_ids == clone_ids


class TestDictParser:
    def test_parses_figure1(self):
        compiled = Scenario.from_dict(figure1_description()).compile()
        topology, schedule = compiled.topology, compiled.schedule
        assert set(topology.services) == {"c1", "sv"}
        assert set(topology.bridges) == {"s1", "s2"}
        assert len(list(topology.links())) == 6  # three bidirectional
        assert len(schedule) == 0

    def test_latency_parsed_as_milliseconds(self):
        topology = Scenario.from_dict(figure1_description()).compile().topology
        assert topology.get_link("c1", "s1").properties.latency == \
            pytest.approx(0.010)

    def test_bandwidth_parsed(self):
        topology = Scenario.from_dict(figure1_description()).compile().topology
        assert topology.get_link("sv", "s2").properties.bandwidth == 50e6

    def test_containers_expand(self):
        topology = Scenario.from_dict(figure1_description()).compile().topology
        assert sorted(topology.container_names()) == ["c1", "sv.0", "sv.1"]

    def test_missing_name_raises(self):
        with pytest.raises(TopologyError):
            Scenario.from_dict(
                {"experiment": {"services": [{"image": "x"}]}}).compile()

    def test_dynamic_events_parsed(self):
        description = figure1_description()
        description["dynamic"] = [
            {"orig": "c1", "dest": "s1", "jitter": 0.5, "time": 120},
            {"action": "leave", "name": "s1", "time": 200},
        ]
        schedule = Scenario.from_dict(description).compile().schedule
        assert len(schedule) == 2
        assert schedule.events[0].action is EventAction.SET_LINK
        assert schedule.events[1].action is EventAction.LEAVE_NODE


class TestListingTextParser:
    def test_full_listing_round_trip(self):
        compiled = Scenario.from_text(LISTING_1_AND_2).compile()
        topology, schedule = compiled.topology, compiled.schedule
        assert set(topology.services) == {"c1", "sv"}
        assert topology.services["sv"].replicas == 2
        assert set(topology.bridges) == {"s1", "s2"}
        assert len(list(topology.links())) == 6
        assert len(schedule) == 4

    def test_dynamic_events_ordered_and_typed(self):
        schedule = Scenario.from_text(LISTING_1_AND_2).compile().schedule
        actions = [event.action for event in schedule]
        assert actions == [EventAction.SET_LINK, EventAction.LEAVE_NODE,
                           EventAction.JOIN_LINK, EventAction.LEAVE_NODE]
        times = [event.time for event in schedule]
        assert times == [120.0, 200.0, 210.0, 240.0]

    def test_jitter_change_preserves_other_fields(self):
        schedule = Scenario.from_text(LISTING_1_AND_2).compile().schedule
        event = schedule.events[0]
        assert event.changes == {"jitter": pytest.approx(0.0005)}


class TestModelnetXml:
    XML = """
    <topology name="demo">
      <vertices>
        <vertex name="c1" role="virtnode" image="iperf"/>
        <vertex name="sv" role="virtnode" image="nginx" replicas="2"/>
        <vertex name="s1" role="gateway"/>
      </vertices>
      <edges>
        <edge src="c1" dst="s1" latency="10" bw="10Mbps"/>
        <edge src="sv" dst="s1" latency="5" bw="50Mbps"/>
      </edges>
    </topology>
    """

    def test_parses_vertices_and_edges(self):
        compiled = Scenario.from_xml(self.XML).compile()
        topology, schedule = compiled.topology, compiled.schedule
        assert set(topology.services) == {"c1", "sv"}
        assert set(topology.bridges) == {"s1"}
        assert len(list(topology.links())) == 4
        assert len(schedule) == 0

    def test_latency_in_milliseconds(self):
        topology = Scenario.from_xml(self.XML).compile().topology
        assert topology.get_link("c1", "s1").properties.latency == \
            pytest.approx(0.010)

    def test_malformed_xml_raises(self):
        with pytest.raises(TopologyError):
            Scenario.from_xml("<topology><unclosed></topology>")


class TestEventSchedule:
    def build_base(self):
        topology = Topology()
        topology.add_service(Service("a"))
        topology.add_service(Service("b"))
        topology.add_bridge(Bridge("s"))
        topology.add_link("a", "s", LinkProperties(latency=0.01, bandwidth=1e6))
        topology.add_link("b", "s", LinkProperties(latency=0.01, bandwidth=1e6))
        return topology

    def test_snapshots_start_with_base(self):
        base = self.build_base()
        schedule = EventSchedule()
        snapshots = schedule.snapshots(base)
        assert len(snapshots) == 1
        assert snapshots[0][0] == 0.0

    def test_snapshot_per_event_time(self):
        base = self.build_base()
        schedule = EventSchedule([
            DynamicEvent(time=10.0, action=EventAction.SET_LINK,
                         origin="a", destination="s",
                         changes={"bandwidth": 2e6}),
            DynamicEvent(time=20.0, action=EventAction.LEAVE_LINK,
                         origin="b", destination="s"),
        ])
        snapshots = schedule.snapshots(base)
        assert [time for time, _ in snapshots] == [0.0, 10.0, 20.0]
        assert snapshots[1][1].get_link("a", "s").properties.bandwidth == 2e6
        assert len(list(snapshots[2][1].links())) == 2  # b<->s removed

    def test_same_time_events_coalesce(self):
        base = self.build_base()
        schedule = EventSchedule([
            DynamicEvent(time=10.0, action=EventAction.SET_LINK,
                         origin="a", destination="s", changes={"latency": 0.02}),
            DynamicEvent(time=10.0, action=EventAction.SET_LINK,
                         origin="b", destination="s", changes={"latency": 0.03}),
        ])
        snapshots = schedule.snapshots(base)
        assert len(snapshots) == 2

    def test_leave_then_join_restores_definition(self):
        base = self.build_base()
        base.services["a"].replicas = 1
        schedule = EventSchedule([
            DynamicEvent(time=5.0, action=EventAction.LEAVE_NODE, name="a"),
            DynamicEvent(time=9.0, action=EventAction.JOIN_NODE, name="a"),
        ])
        snapshots = schedule.snapshots(base)
        assert "a" not in snapshots[1][1].services
        assert "a" in snapshots[2][1].services

    def test_link_flap(self):
        """Rapid leave + join of a link emulates a flapping link (§3)."""
        base = self.build_base()
        properties = base.get_link("a", "s").properties
        schedule = EventSchedule([
            DynamicEvent(time=1.0, action=EventAction.LEAVE_LINK,
                         origin="a", destination="s"),
            DynamicEvent(time=1.2, action=EventAction.JOIN_LINK,
                         origin="a", destination="s", properties=properties),
        ])
        snapshots = schedule.snapshots(base)
        assert len(list(snapshots[1][1].links())) == 2
        assert len(list(snapshots[2][1].links())) == 4

    def test_base_topology_not_mutated(self):
        base = self.build_base()
        schedule = EventSchedule([
            DynamicEvent(time=1.0, action=EventAction.LEAVE_NODE, name="a")])
        schedule.snapshots(base)
        assert "a" in base.services

    def test_events_sorted_by_time(self):
        schedule = EventSchedule([
            DynamicEvent(time=20.0, action=EventAction.LEAVE_NODE, name="x"),
            DynamicEvent(time=10.0, action=EventAction.LEAVE_NODE, name="y"),
        ])
        assert [event.time for event in schedule] == [10.0, 20.0]

    def test_horizon(self):
        schedule = EventSchedule([
            DynamicEvent(time=42.0, action=EventAction.LEAVE_NODE, name="x")])
        assert schedule.horizon() == 42.0
        assert EventSchedule().horizon() == 0.0
