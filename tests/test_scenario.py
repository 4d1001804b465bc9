"""The unified Scenario API: builder, compilation, parity and round-trips."""

import pytest

from repro.scenario import (
    Scenario,
    flow,
    iperf,
    link_down,
    link_up,
    node_join,
    node_leave,
    ping,
    set_link,
)
from repro.scenario.dsl import scn_document
from repro.topology import (DynamicEvent, EventAction, LinkProperties,
                            TopologyError)
from repro.units import UnitError

FIGURE1_TEXT = """
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
"""


def figure1_builder() -> Scenario:
    return (Scenario.build("figure1")
            .service("c1", image="iperf")
            .service("sv", image="nginx", replicas=2)
            .bridges("s1", "s2")
            .link("c1", "s1", latency="10ms", up="10Mbps")
            .link("s1", "s2", latency="20ms", up="100Mbps")
            .link("sv", "s2", latency="5ms", up="50Mbps"))


def figure1_dict(dynamic=()) -> dict:
    """Figure 1 in the dict form, with ``dynamic`` stanzas."""
    links = [("c1", "s1", 10, "10Mbps"), ("s1", "s2", 20, "100Mbps"),
             ("sv", "s2", 5, "50Mbps")]
    return {"experiment": {
        "name": "figure1",
        "services": [{"name": "c1", "image": "iperf"},
                     {"name": "sv", "image": "nginx", "replicas": 2}],
        "bridges": [{"name": "s1"}, {"name": "s2"}],
        "links": [{"orig": orig, "dest": dest, "latency": latency,
                   "up": rate, "down": rate}
                  for orig, dest, latency, rate in links]},
        "dynamic": list(dynamic)}


def dynamic_text(stanzas) -> str:
    """A ``dynamic:`` section in the listing syntax (``time:`` last)."""
    lines = ["dynamic:"]
    for stanza in stanzas:
        lines += [f"  {key}: {value}" for key, value in stanza.items()
                  if key != "time"]
        lines.append(f"  time: {stanza['time']}")
    return "\n".join(lines) + "\n"


#: One set_link / leave / join sequence, in each spelling a front end has.
SEQUENCE_STANZAS = [
    {"orig": "s1", "dest": "s2", "latency": 80, "time": 30},
    {"action": "leave", "orig": "c1", "dest": "s1", "time": 40},
    {"action": "join", "orig": "c1", "dest": "s1", "latency": 10,
     "up": "10Mbps", "time": 42},
    {"action": "leave", "name": "sv", "time": 50},
    {"action": "join", "name": "sv", "time": 55},
]
SEQUENCE_SCRIPT = """
at 30 set link s1--s2 latency=80ms
at 40 leave link c1--s1
at 42 join link c1--s1 latency=10ms up=10Mbps
at 50 leave service sv
at 55 join service sv
"""


def sequence_builder() -> Scenario:
    return (figure1_builder()
            .at(30, set_link("s1", "s2", latency="80ms"))
            .at(40, link_down("c1", "s1"))
            .at(42, link_up("c1", "s1", latency="10ms", up="10Mbps"))
            .at(50, node_leave("sv"))
            .at(55, node_join("sv")))


class TestBuilderParity:
    def test_builder_matches_text_dsl_byte_for_byte(self):
        """The acceptance contract: identical collapsed path tables."""
        built = figure1_builder().compile()
        parsed = Scenario.from_text(FIGURE1_TEXT).compile()
        assert built.path_table() == parsed.path_table()
        assert built.path_table()  # non-empty

    def test_builder_matches_legacy_parser(self):
        built = figure1_builder().compile()
        topology = Scenario.from_text(FIGURE1_TEXT).compile().topology
        assert set(built.topology.services) == set(topology.services)
        assert set(built.topology.bridges) == set(topology.bridges)
        assert len(list(built.topology.links())) == len(list(topology.links()))

    def test_numeric_and_string_units_agree(self):
        numeric = (Scenario.build().service("a").service("b")
                   .link("a", "b", latency=0.010, up=10e6).compile())
        strings = (Scenario.build().service("a").service("b")
                   .link("a", "b", latency="10ms", up="10Mbps").compile())
        assert numeric.path_table() == strings.path_table()

    @pytest.mark.parametrize("spelled", [
        lambda: Scenario.from_dict(figure1_dict(SEQUENCE_STANZAS)),
        lambda: Scenario.from_text(FIGURE1_TEXT
                                   + dynamic_text(SEQUENCE_STANZAS)),
        lambda: figure1_builder().script(SEQUENCE_SCRIPT),
    ], ids=["dict", "text", "thunderstorm"])
    def test_every_spelling_of_the_dynamics_matches_the_helpers(self,
                                                                spelled):
        built = sequence_builder().compile()
        compiled = spelled().compile()
        assert compiled.schedule.events == built.schedule.events
        assert compiled.path_table() == built.path_table()

    def test_declaration_order_is_free(self):
        """Links may precede the nodes they reference; compile() resolves."""
        compiled = (Scenario.build()
                    .link("a", "b", up="1Mbps")
                    .service("a").service("b")
                    .compile())
        assert len(list(compiled.topology.links())) == 2


#: Two services and one symmetric link, in the listing syntax and as its
#: builder twin; the listing cases below add a ``dynamic:`` section.
PAIR_TEXT = """
experiment:
  services:
    name: a
    name: b
  links:
    orig: a
    dest: b
    latency: 1
    up: 10Mbps
    down: 10Mbps
"""


def pair_builder() -> Scenario:
    return (Scenario.build().service("a").service("b")
            .link("a", "b", latency="1ms", up="10Mbps", down="10Mbps"))


#: One listing text per construct the listing language spells, each with
#: the builder that says the same.
LISTINGS = {
    "replicated-service": ("""
experiment:
  services:
    name: c1
    image: "iperf"
    name: sv
    image: "nginx"
    replicas: 2
  bridges:
    name: s1
  links:
    orig: c1
    dest: s1
    latency: 10
    up: 10Mbps
    down: 10Mbps
    orig: sv
    dest: s1
    latency: 5
    up: 50Mbps
    down: 50Mbps
""", lambda: (Scenario.build()
              .service("c1", image="iperf")
              .service("sv", image="nginx", replicas=2)
              .bridges("s1")
              .link("c1", "s1", latency="10ms", up="10Mbps", down="10Mbps")
              .link("sv", "s1", latency="5ms", up="50Mbps", down="50Mbps"))),
    "set-link-latency": (PAIR_TEXT + """
dynamic:
  orig: a
  dest: b
  latency: 80
  time: 30
""", lambda: pair_builder().at(30, set_link("a", "b", latency="80ms"))),
    "link-leave-and-join": (PAIR_TEXT + """
dynamic:
  action: leave
  orig: a
  dest: b
  time: 5
  action: join
  orig: a
  dest: b
  latency: 1
  up: 10Mbps
  down: 10Mbps
  jitter: 1
  jitter_distribution: uniform
  time: 6
""", lambda: (pair_builder()
              .at(5, link_down("a", "b"))
              .at(6, DynamicEvent(0.0, EventAction.JOIN_LINK, origin="a",
                                  destination="b",
                                  properties=LinkProperties(
                                      latency=0.001, bandwidth=10e6,
                                      jitter=0.001,
                                      jitter_distribution="uniform"))))),
    "node-leave": (PAIR_TEXT + """
dynamic:
  action: leave
  name: b
  time: 50
""", lambda: pair_builder().at(50, node_leave("b"))),
    "up-unlimited": (PAIR_TEXT + """
dynamic:
  orig: a
  dest: b
  up: unlimited
  time: 5
""", lambda: pair_builder().at(5, set_link("a", "b",
                                            bandwidth=float("inf")))),
    "one-way": ("""
experiment:
  services:
    name: a
    name: b
  links:
    orig: a
    dest: b
    up: 5Mbps
    bidirectional: false
dynamic:
  action: leave
  orig: a
  dest: b
  bidirectional: false
  time: 3
""", lambda: (Scenario.build().service("a").service("b")
              .link("a", "b", up="5Mbps", bidirectional=False)
              .at(3, link_down("a", "b", bidirectional=False)))),
}


def listing_sections(scenario) -> tuple:
    """The services, bridges, links and events of ``scenario``'s ``.scn``
    document, and its path table: what a listing text says, without the
    name, workloads and deploy settings the listing has no words for."""
    compiled = scenario.compile()
    document = scn_document(compiled)
    return ({section: document.get(section)
             for section in ("services", "bridges", "links", "events")},
            compiled.path_table())


class TestListingReader:
    @pytest.mark.parametrize("construct", sorted(LISTINGS))
    def test_reads_what_its_builder_twin_says(self, construct):
        text, twin = LISTINGS[construct]
        assert listing_sections(Scenario.from_text(text)) == \
            listing_sections(twin())


class TestValidation:
    def test_duplicate_names_all_listed(self):
        builder = (Scenario.build()
                   .service("a").service("a").service("b").bridge("b"))
        with pytest.raises(TopologyError) as error:
            builder.compile()
        assert "duplicate" in str(error.value)
        assert "a" in str(error.value) and "b" in str(error.value)

    def test_undeclared_endpoints_all_listed(self):
        builder = (Scenario.build().service("real")
                   .link("real", "ghost1").link("ghost2", "real"))
        with pytest.raises(TopologyError) as error:
            builder.compile()
        message = str(error.value)
        assert "undeclared" in message
        assert "ghost1" in message and "ghost2" in message
        assert "real" not in message.split("undeclared")[1].split(":")[0]

    def test_duplicate_service_in_text_dsl_rejected_clearly(self):
        text = FIGURE1_TEXT + "\n  services:\n    name: c1\n    image: x\n"
        with pytest.raises(TopologyError) as error:
            Scenario.from_text(text).compile()
        assert "duplicate" in str(error.value)
        assert "c1" in str(error.value)

    def test_bad_unit_string_raises(self):
        with pytest.raises(UnitError):
            Scenario.build().service("a").service("b").link(
                "a", "b", up="10Mbbps")

    @pytest.mark.parametrize("declare", [
        lambda builder: builder.at(-1, set_link("s1", "s2", latency="1ms")),
        lambda builder: builder.workload(flow("c1", "sv.0", start=-1)),
        lambda builder: builder.deploy(duration=-2.0),
    ], ids=["event", "workload", "duration"])
    def test_negative_times_are_refused_when_declared(self, declare):
        """Every time the builder takes is one a .scn document may hold."""
        with pytest.raises(UnitError, match="negative time"):
            declare(figure1_builder())

    def test_bad_event_reference_fails_at_compile(self):
        builder = (figure1_builder()
                   .at(10, set_link("c1", "nope", latency="1ms")))
        with pytest.raises(TopologyError):
            builder.compile()

    def test_unknown_deploy_tunable_rejected(self):
        with pytest.raises(TypeError) as error:
            Scenario.build().deploy(machines=2, warp_factor=9)
        assert "warp_factor" in str(error.value)

    def test_empty_scenario_rejected(self):
        with pytest.raises(TopologyError):
            Scenario.build().compile()

    def test_duplicate_workload_keys_rejected(self):
        builder = (figure1_builder()
                   .workload(ping("c1", "sv.0"), ping("c1", "sv.0")))
        with pytest.raises(TopologyError) as error:
            builder.compile()
        assert "workload" in str(error.value)
        assert "ping:c1->sv.0" in str(error.value)

    def test_incremental_deploy_preserves_earlier_settings(self):
        builder = figure1_builder().deploy(machines=4, seed=7)
        builder.deploy(duration=5.0)   # a later partial override
        compiled = builder.compile()
        assert compiled.config.machines == 4
        assert compiled.config.seed == 7
        assert compiled.duration == 5.0


class TestRun:
    def test_run_collects_workload_results(self):
        run = (figure1_builder()
               .workload(ping("c1", "sv.0", count=20, interval=0.02))
               .workload(iperf("c1", "sv.0", duration=8.0))
               .deploy(machines=2, seed=42, duration=10.0)
               .compile()
               .run())
        stats = run["ping:c1->sv.0"]
        assert stats.mean_rtt == pytest.approx(0.070, rel=0.05)
        result = run["iperf:c1->sv.0"]
        assert result.mean_goodput == pytest.approx(10e6, rel=0.15)

    def test_run_matches_manual_engine_wiring(self):
        """Builder-run and hand-wired engine agree on throughput."""
        from repro.core import EmulationEngine, EngineConfig

        compiled = (figure1_builder()
                    .workload(flow("c1", "sv.0", key="f"))
                    .deploy(machines=2, seed=42).compile())
        run = compiled.run(until=10.0)

        parsed = Scenario.from_text(FIGURE1_TEXT).compile()
        engine = EmulationEngine(parsed.topology, parsed.schedule,
                                 config=EngineConfig(machines=2, seed=42))
        engine.start_flow("f", "c1", "sv.0")
        engine.run(until=10.0)

        assert run.engine.fluid.mean_throughput("f", 0, 10) == \
            pytest.approx(engine.fluid.mean_throughput("f", 0, 10))

    def test_events_apply_during_run(self):
        run = (figure1_builder()
               .at(5, set_link("s1", "s2", bandwidth="1Mbps"))
               .deploy(machines=1, seed=1, duration=6.0)
               .compile().run())
        collapsed = run.engine.current_state.collapsed
        assert collapsed.path("c1", "sv.0").bandwidth == pytest.approx(1e6)

    def test_script_merges_into_schedule(self):
        compiled = (figure1_builder()
                    .script("at 2 set link s1--s2 latency=80ms\n")
                    .at(4, set_link("c1", "s1", latency="15ms"))
                    .compile())
        assert len(compiled.schedule) == 2
        assert [e.time for e in compiled.schedule] == [2.0, 4.0]


class TestPlanAndFrontends:
    def test_plan_places_all_containers(self):
        plan = (figure1_builder().deploy(machines=2).compile()
                .plan(orchestrator="swarm"))
        assert sorted(plan.placement) == ["c1", "sv.0", "sv.1"]
        assert plan.needs_bootstrapper

    def test_at_accepts_unit_strings_for_time(self):
        compiled = (figure1_builder()
                    .at("2min", set_link("s1", "s2", latency="80ms"))
                    .compile())
        assert compiled.schedule.events[0].time == 120.0


    def test_one_helper_at_two_times_is_two_events(self):
        change = set_link("s1", "s2", latency="80ms")
        compiled = figure1_builder().at(10, change).at(20, change).compile()
        first, second = compiled.schedule.events
        assert (first.time, second.time, change.time) == (10.0, 20.0, 0.0)
        first.changes["latency"] = 1.0
        assert second.changes == change.changes == {"latency": 0.08}

    @pytest.mark.parametrize("spelled", [
        lambda stanza: Scenario.from_dict(figure1_dict([stanza])),
        lambda stanza: Scenario.from_text(FIGURE1_TEXT
                                          + dynamic_text([stanza])),
        lambda stanza: figure1_builder().script(
            f"at {stanza['time']} "
            + ("join" if stanza.get("action") else "set")
            + f" link {stanza['orig']}--{stanza['dest']} "
            + " ".join(f"{key}={stanza[key]}" for key in ("up", "down")
                       if key in stanza)),
    ], ids=["dict", "text", "thunderstorm"])
    @pytest.mark.parametrize("stanza, forward, backward", [
        ({"orig": "s1", "dest": "s2", "up": "2Mbps", "down": "1Mbps",
          "time": 5}, 2e6, 1e6),
        ({"orig": "s1", "dest": "s2", "down": "1Mbps", "time": 5},
         100e6, 1e6),
        ({"action": "join", "orig": "c1", "dest": "s2", "up": "3Mbps",
          "down": "2Mbps", "time": 5}, 3e6, 2e6),
    ], ids=["set-both", "set-down", "join-both"])
    def test_down_sets_the_reverse_direction(self, spelled, stanza,
                                             forward, backward):
        compiled = spelled(stanza).compile()
        _, final = compiled.schedule.snapshots(compiled.topology)[-1]
        orig, dest = stanza["orig"], stanza["dest"]
        assert final.get_link(orig, dest).properties.bandwidth == forward
        assert final.get_link(dest, orig).properties.bandwidth == backward

    def test_equal_directions_stay_one_bidirectional_event(self):
        compiled = Scenario.from_dict(figure1_dict([
            {"orig": "s1", "dest": "s2", "up": "2Mbps", "down": "2Mbps",
             "time": 5}])).compile()
        (event,) = compiled.schedule.events
        assert event.bidirectional and event.changes == {"bandwidth": 2e6}
