"""The declarative scenario DSL: schema, round-trip, fuzz, differential.

The load-bearing property is round-trip byte-identity: compile → dump →
reload → recompile must reproduce ``describe()`` and ``path_table()``
exactly, for every checked-in example and for thousands of fuzzed
scenarios.  Everything else — lint diagnostics, semantic diff, the
differential harness — is tested against that same canonical form.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
from functools import partial

import pytest
import scn_corpus
import test_end_to_end
import test_scenario
import test_topology

from repro.scenario import Scenario, custom, flow, ping, set_link
from repro.scenario.backends import BareMetalBackend, register_backend
from repro.scenario.dsl import (Diagnostic, FuzzBudget, ScnError,
                                diff_scenarios, dumps_scn, generate_scenario,
                                lint_file, lint_scenario, loads_scn,
                                project_common, run_differential,
                                scenario_from_scn, scn_document, schema,
                                validate_document)
from repro.scenario.workloads import PingWorkload
from repro.topology.model import TopologyError

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parent.parent / "examples"
CORPUS_GOLDEN = pathlib.Path(__file__).parent / "golden" / "scn_corpus.json"

_TEXT = """\
experiment:
  services:
    name: a
    replicas: 2
    name: b
  links:
    orig: a
    dest: b
    latency: 5
    up: 10Mbps
    loss: 0.01
"""
_XML = """\
<topology>
  <vertex name="a" role="virtnode" replicas="2"/>
  <vertex name="b" role="virtnode"/>
  <edge src="a" dst="b" latency="5" bw="10Mbps"/>
</topology>
"""

#: (file name, content, expected diagnostic): outside input that is
#: malformed in a non-``.scn`` format; shared with tests/test_cli.py.
MALFORMED_DESCRIPTIONS = [
    pytest.param("bad.txt", _TEXT.replace("replicas: 2", "replicas: two"),
                 "services[0].replicas: expected an integer",
                 id="text-replicas"),
    pytest.param("bad.txt", _TEXT.replace("loss: 0.01", "loss: lots"),
                 "links[0].loss", id="text-loss"),
    pytest.param("bad.xml", _XML.replace('replicas="2"', 'replicas="two"'),
                 "services[0].replicas: expected an integer",
                 id="xml-replicas"),
    pytest.param("bad.xml", _XML.replace(' dst="b"', ""),
                 "links[0]: missing required key 'dest'",
                 id="xml-edge-without-dst"),
]


def _simple_builder(name: str = "simple") -> Scenario:
    return (Scenario.build(name)
            .service("a", image="iperf")
            .service("b", image="nginx")
            .bridges("s1")
            .link("a", "s1", latency="5ms", up="10Mbps")
            .link("s1", "b", latency="5ms", up="10Mbps")
            .workload(flow("a", "b", rate="2Mbps", protocol="udp",
                           key="f1"))
            .deploy(machines=1, seed=3, duration=10.0))


def _document(**overrides):
    base = {
        "scn": 1,
        "name": "doc",
        "services": [{"name": "a"}, {"name": "b"}],
        "links": [{"orig": "a", "dest": "b", "latency": "5ms",
                   "up": "10Mbps"}],
    }
    base.update(overrides)
    return base


def _errors(document):
    return [d for d in validate_document(document) if d.severity == "error"]


# --------------------------------------------------------------------------
# Schema rejection: every bad document yields a pointed diagnostic.
# --------------------------------------------------------------------------
class TestSchema:
    def test_clean_document_passes(self):
        assert validate_document(_document()) == []

    def test_unsupported_version(self):
        errors = _errors(_document(scn=99))
        assert any("scn" in error.path for error in errors)

    def test_unknown_top_level_key(self):
        errors = _errors(_document(topologee=[]))
        assert any("topologee" in str(error) for error in errors)

    def test_unknown_service_field(self):
        document = _document()
        document["services"][0]["imaeg"] = "typo"
        errors = _errors(document)
        assert any(error.path == "services[0].imaeg"
                   and "unknown key" in error.message for error in errors)

    def test_link_missing_required_endpoint(self):
        document = _document(links=[{"orig": "a", "up": "1Mbps"}])
        errors = _errors(document)
        assert any("links[0]" in error.path and "dest" in error.message
                   for error in errors)

    def test_link_to_undeclared_node(self):
        document = _document(links=[{"orig": "a", "dest": "ghost",
                                     "up": "1Mbps"}])
        errors = _errors(document)
        assert any("ghost" in error.message for error in errors)

    def test_bad_loss_value(self):
        document = _document(links=[{"orig": "a", "dest": "b",
                                     "up": "1Mbps", "loss": 1.5}])
        errors = _errors(document)
        assert any("loss" in error.path for error in errors)

    def test_unknown_workload_kind(self):
        document = _document(workloads=[{"kind": "torrent", "source": "a",
                                         "destination": "b"}])
        errors = _errors(document)
        assert any("workloads[0]" in error.path for error in errors)

    @pytest.mark.parametrize("kind", [[], {}, ["flow"], {"flow": 1}],
                             ids=repr)
    def test_unhashable_workload_kind(self, tmp_path, kind):
        """Outside input may put anything under ``kind``: a list or a
        mapping is a ``workloads[0].kind`` diagnostic from every entry
        point, one ScnError from the loader — never a TypeError."""
        document = _document(workloads=[{"kind": kind, "source": "a",
                                         "destination": "b"}])
        expected = f"workloads[0].kind: unknown workload kind {kind!r}"
        assert [str(error) for error in _errors(document)] == [
            f"error: {expected} (expected one of: curl, flow, http, iperf, "
            f"memtier, ping, smr, ycsb)"]
        path = tmp_path / "kind.scn"
        path.write_text(json.dumps(document))
        assert expected in "\n".join(map(str, lint_file(str(path))))
        with pytest.raises(ScnError) as info:
            loads_scn(json.dumps(document))
        assert expected in str(info.value)
        assert len(info.value.diagnostics) == 1

    @pytest.mark.parametrize("section, pointer", [
        pytest.param({"deploy": {"kind": 0}}, "deploy.kind", id="deploy"),
        pytest.param({"services": [{"name": "a", "kind": "x"},
                                   {"name": "b"}]},
                     "services[0].kind", id="service"),
        pytest.param({"events": [{"time": 1.0, "action": "set_link",
                                  "orig": "a", "dest": "b",
                                  "changes": {"latency": "1ms",
                                              "kind": {}}}]},
                     "events[0].changes.kind", id="changes"),
    ])
    def test_kind_is_a_key_of_workloads_only(self, section, pointer):
        """``kind`` selects a workload's record; anywhere else it is an
        unknown key like any other (it used to be skipped everywhere and
        then crash the loader)."""
        document = _document(**section)
        assert [error.path for error in _errors(document)] == [pointer]
        with pytest.raises(ScnError) as info:
            scenario_from_scn(document)
        assert f"{pointer}: unknown key" in str(info.value)

    def test_workload_to_undeclared_container(self):
        document = _document(workloads=[{"kind": "flow", "source": "a",
                                         "destination": "nobody"}])
        errors = _errors(document)
        assert any("nobody" in error.message for error in errors)

    @pytest.mark.parametrize("spec, stranger", [
        pytest.param({"kind": "ycsb", "replicas": ["a", "ghost"],
                      "clients": {"b": "a"}}, "ghost", id="ycsb-replica"),
        pytest.param({"kind": "ycsb", "replicas": ["a"],
                      "clients": {"b": "ghost"}}, "ghost",
                     id="ycsb-coordinator"),
        pytest.param({"kind": "ycsb", "replicas": ["a"],
                      "clients": {"ghost": "a"}}, "ghost", id="ycsb-client"),
        pytest.param({"kind": "smr", "replicas": ["a", "ghost"],
                      "sources": ["b"]}, "ghost", id="smr-replica"),
        pytest.param({"kind": "memtier", "server": "a",
                      "sources": ["ghost"]}, "ghost", id="memtier-source"),
    ])
    def test_every_node_a_workload_names_is_declared(self, spec, stranger):
        """Whatever field names a container — an endpoint, a replica, a
        coordinator — an undeclared one is an error on its workload."""
        assert [(error.path, error.message)
                for error in _errors(_document(workloads=[spec]))] == [
            ("workloads[0]", f"workload endpoint {stranger!r} names no "
                             "declared service or container")]

    def test_duplicate_workload_keys(self):
        spec = {"kind": "flow", "source": "a", "destination": "b",
                "key": "dup"}
        errors = _errors(_document(workloads=[spec, dict(spec)]))
        assert any("dup" in error.message for error in errors)

    def test_event_on_unknown_link(self):
        document = _document(events=[{"time": 1.0, "action": "set_link",
                                      "orig": "a", "dest": "ghost",
                                      "changes": {"latency": "1ms"}}])
        errors = _errors(document)
        assert any("events[0]" in error.path for error in errors)

    @pytest.mark.parametrize("action", ["set_link", "leave_link", "bogus"])
    def test_a_bad_event_time_is_reported_once(self, action):
        document = _document(events=[{"time": -3, "action": action,
                                      "orig": "a", "dest": "b",
                                      "changes": {"latency": "1ms"}}])
        findings = [str(error) for error in _errors(document)]
        assert findings.count("error: events[0].time: negative time: -3") \
            == 1, findings

    def test_unknown_deploy_tunable(self):
        errors = _errors(_document(deploy={"warp_speed": 9}))
        assert any("warp_speed" in str(error) for error in errors)

    @pytest.mark.parametrize("key", ["metadata_on_change_only",
                                     "enforce_physical_limits"])
    def test_retired_deploy_key(self, key):
        """Change-only publication and the §6 opt-out are gone: a document
        naming either is refused, as the builder refuses the keyword."""
        assert [str(error).split(" (")[0] for error in _errors(
            _document(deploy={key: False}))] == [
                f"error: deploy.{key}: unknown key"]
        with pytest.raises(TypeError, match=key):
            Scenario.build().deploy(**{key: False})

    def test_isolated_node_is_a_warning_not_error(self):
        document = _document(services=[{"name": "a"}, {"name": "b"},
                                       {"name": "lonely"}])
        diagnostics = validate_document(document)
        assert not _errors(document)
        assert any(d.severity == "warning" and "lonely" in str(d)
                   for d in diagnostics)

    def test_event_past_duration_warns(self):
        document = _document(
            events=[{"time": 99.0, "action": "set_link", "orig": "a",
                     "dest": "b", "changes": {"latency": "1ms"}}],
            deploy={"duration": 10.0})
        diagnostics = validate_document(document)
        assert not _errors(document)
        assert any(d.severity == "warning" and "99" in str(d)
                   for d in diagnostics)

    @pytest.mark.parametrize("name, content, expected",
                             MALFORMED_DESCRIPTIONS)
    def test_every_format_gets_pointer_diagnostics(self, tmp_path, name,
                                                   content, expected):
        """Text and XML lower to the same schema-validated document, so
        their mistakes are reported like a .scn file's."""
        path = tmp_path / name
        path.write_text(content)
        assert expected in "\n".join(map(str, lint_file(str(path))))
        with pytest.raises(ScnError) as info:
            Scenario.from_file(str(path))
        assert expected in str(info.value)

    def test_loads_scn_aggregates_errors(self):
        document = _document(scn=99)
        document["links"][0]["loss"] = -1
        with pytest.raises(ScnError) as info:
            loads_scn(json.dumps(document))
        assert "scn" in str(info.value)
        assert "loss" in str(info.value)


# --------------------------------------------------------------------------
# The record table: every field, its order and its default come from the
# dataclass; its check, load and dump from the field's unit.
# --------------------------------------------------------------------------
#: Document-side values a unit may accept, in canonical spelling; a field
#: is probed with the first one its unit takes.
_CANDIDATES = (1.25, 0.25, 7, False, True, "uniform", "udp", {"k": "v"},
               ["x", "y"], ["z"], "wheat", {"k": "w"})


def _candidates(field):
    return [value for value in _CANDIDATES if field.unit.check(value) is None]


def _made(record, document):
    """The record a document mapping loads to, the way the loader makes
    it: services and links through the builder, the rest constructed."""
    arguments = record.load(document)
    if record is schema.SERVICE:
        return Scenario.build().service(**arguments)._services[0]
    if record is schema.LINK:
        return Scenario.build().link(**arguments)._links[0]
    return record.cls(**arguments)


_ALL_RECORDS = [pytest.param(record, id=cls.__name__)
                for cls, record in schema.RECORDS.items()]


class TestRecords:
    def test_the_table_covers_the_vocabulary(self):
        assert sorted(schema.WORKLOADS) == ["curl", "flow", "http", "iperf",
                                            "memtier", "ping", "smr",
                                            "ycsb"]
        assert [field.name for field in schema.CHANGES.fields] == [
            "latency", "bandwidth", "jitter", "loss"]

    @pytest.mark.parametrize("record", _ALL_RECORDS)
    def test_every_dataclass_field_has_a_unit(self, record):
        """Names and order are the dataclass's: a field the table missed
        would vanish from every dump."""
        assert [field.name for field in record.fields] == [
            field.name for field in dataclasses.fields(record.cls)]
        assert record.required == tuple(
            field.key for field, declared
            in zip(record.fields, dataclasses.fields(record.cls))
            if declared.default is dataclasses.MISSING)

    def test_a_field_without_a_unit_fails_loudly(self):
        units = schema._UNITS[PingWorkload]

        @dataclasses.dataclass(frozen=True)
        class WiderPing(PingWorkload):
            size: int = 64

        with pytest.raises(TypeError, match="size"):
            schema.Record.of(WiderPing, units)
        with pytest.raises(TypeError, match="bogus"):
            schema.Record.of(PingWorkload, dict(units, bogus=schema.STR))

    @pytest.mark.parametrize("record", _ALL_RECORDS)
    def test_one_field_at_a_time(self, record):
        """default ⇒ key omitted, non-default ⇒ exactly that key, and
        load(dump) == record — for every field of every record."""
        required = {field.key: _candidates(field)[0]
                    for field in record.fields
                    if field.default is dataclasses.MISSING}
        base = _made(record, required)
        dumped = record.dump(base)
        assert _made(record, dumped) == base
        for field in record.fields:
            # (A workload's key is derived, never left at its default.)
            at_default = getattr(base, field.name) == field.default
            assert (field.key in dumped) == (not at_default), field.name
        for field in record.fields:
            value = next(value for value in _candidates(field)
                         if value != dumped.get(field.key))
            document = dict(dumped, **{field.key: value})
            item = _made(record, document)
            assert item != base, field.name
            assert record.dump(item) == document, field.name
            assert _made(record, record.dump(item)) == item, field.name

    def test_an_alias_loads_and_the_canonical_key_wins(self):
        ends = {"orig": "a", "dest": "b"}
        assert _made(schema.LINK, dict(ends, bandwidth="5Mbps")).up == 5e6
        for document in (dict(ends, up=1e6, bandwidth=5e6),
                         dict(ends, bandwidth=5e6, up=1e6)):
            assert _made(schema.LINK, document).up == 1e6
        assert "bandwidth" not in schema.LINK.dump(
            _made(schema.LINK, dict(ends, bandwidth=5e6)))

    def test_null_means_unset_only_where_the_unit_says_so(self):
        document = _document(
            services=[{"name": "a", "command": None}, {"name": "b"}],
            workloads=[{"kind": "flow", "source": "a", "destination": "b",
                        "stop": None}])
        assert not _errors(document)
        compiled = scenario_from_scn(document).compile()
        assert compiled.services[0].command is None
        assert compiled.workloads[0].stop is None
        document["links"][0]["down"] = None
        assert [error.path for error in _errors(document)] == [
            "links[0].down"]


def test_scn_corpus_matches_the_golden():
    """The whole front door over 613 scenarios and 3 678 mutations, as it
    was before the record table replaced the hand-written field lists
    (see tests/scn_corpus.py for what is digested and how to find what
    moved)."""
    golden = json.loads(CORPUS_GOLDEN.read_text())
    assert (scn_corpus.SEED, scn_corpus.PER_BUDGET) == (
        golden["seed"], golden["per_budget"])
    assert scn_corpus.corpus_digests() == golden["sections"]


def test_the_front_doors_agree_over_the_corpus():
    """Over the same corpus and mutations: a document the validator
    passes compiles, and a builder that compiles lints clean."""
    assert scn_corpus.observe()[1] == ()


# --------------------------------------------------------------------------
# One rule book: every case where the validator and compile() once
# disagreed, judged the same by compile(), validate_document and lint.
# --------------------------------------------------------------------------
def _with(**overrides):
    """``_document()`` with ``c1`` and the replicated ``sv`` behind the
    bridge ``s1``."""
    base = _document(
        services=[{"name": "c1"}, {"name": "sv", "replicas": 2}],
        bridges=["s1"],
        links=[{"orig": "c1", "dest": "s1"}, {"orig": "s1", "dest": "sv"}])
    base.update(overrides)
    return base


RULE_CASES = [
    pytest.param(_with(services=[{"name": "c1"}, {"name": "c1"},
                                 {"name": "sv"}]),
                 "services[1]",
                 "duplicate node name 'c1' (first declared at services[0])",
                 id="duplicate-service"),
    pytest.param(_with(bridges=["s1", "c1"]), "bridges[1]",
                 "duplicate node name 'c1' (first declared at services[0])",
                 id="service-and-bridge"),
    pytest.param(_with(links=[{"orig": "c1", "dest": "s1"},
                              {"orig": "s1", "dest": "sv"},
                              {"orig": "s1", "dest": "s1"}]),
                 "links[2]", "self-loop on 's1'", id="self-loop"),
    pytest.param(_with(links=[{"orig": "c1", "dest": "s1"},
                              {"orig": "s1", "dest": "sv"},
                              {"orig": "s1", "dest": "c1"}]),
                 "links[2]", "duplicate link ('s1', 'c1') (first declared "
                             "at links[0])", id="mirrored-link"),
    pytest.param(_with(links=[{"orig": "c1", "dest": "s1"},
                              {"orig": "s1", "dest": "sv"},
                              {"orig": "c1", "dest": "s1",
                               "bidirectional": False}]),
                 "links[2]", "duplicate link ('c1', 's1') (first declared "
                             "at links[0])", id="one-way-twice"),
    pytest.param(_with(services=[], links=[{"orig": "s1", "dest": "s2"}],
                       bridges=["s1", "s2"]),
                 "services", "a scenario needs at least one service",
                 id="no-service"),
    pytest.param(_with(events=[
        {"time": 1.0, "action": "set_link", "orig": "s1", "dest": "late",
         "changes": {"latency": "1ms"}},
        {"time": 5.0, "action": "join", "name": "late"}]),
                 "events[0].dest", "event references undeclared node 'late'",
                 id="event-before-join"),
    pytest.param(_with(workloads=[{"kind": "ping", "source": "ghost",
                                   "destination": "c1"}]),
                 "workloads[0]", "workload endpoint 'ghost' names no "
                                 "declared service or container",
                 id="ping-from-ghost"),
    pytest.param(_with(workloads=[{"kind": "ping", "source": "c1",
                                   "destination": "s1"}]),
                 "workloads[0]", "workload endpoint 's1' is a bridge, not a "
                                 "container", id="ping-to-bridge"),
    pytest.param(_with(workloads=[{"kind": "flow", "source": "c1",
                                   "destination": "s1"}]),
                 "workloads[0]", "workload endpoint 's1' is a bridge, not a "
                                 "container", id="flow-to-bridge"),
    pytest.param(_with(workloads=[{"kind": "ping", "source": "c1",
                                   "destination": "sv"}]),
                 "workloads[0]", "workload endpoint 'sv' is a service of "
                                 "containers sv.0, sv.1, not a container",
                 id="ping-to-replicated-service"),
    pytest.param(_with(workloads=[{"kind": "flow", "source": "c1",
                                   "destination": "sv.0"}] * 2),
                 "workloads", "duplicate workload key 'c1->sv.0' "
                              "(2 declarations)", id="keyless-twins"),
    # Deployment values the engine refuses at construction.
    pytest.param(_with(deploy={"time_dilation": 0.5}),
                 "deploy.time_dilation",
                 "expected a dilation factor >= 1, got 0.5",
                 id="time-dilation-below-one"),
    pytest.param(_with(deploy={"loop_period": 0}), "deploy.loop_period",
                 "expected a period > 0 seconds, got 0",
                 id="loop-period-zero"),
    pytest.param(_with(deploy={"fluid_dt": 0}), "deploy.fluid_dt",
                 "expected a period > 0 seconds, got 0", id="fluid-dt-zero"),
    pytest.param(_with(deploy={"machines": 0}), "deploy.machines",
                 "expected an integer >= 1, got 0", id="no-machine"),
    pytest.param(_with(deploy={"placement": {
        "c1": "host-0", "sv.0": "host-9", "sv.1": "host-0"}}),
                 "deploy.placement", "'sv.0' is placed on 'host-9', which is "
                                     "no machine of the cluster (host-0)",
                 id="placed-on-no-machine"),
    pytest.param(_with(deploy={"machines": 2, "placement": {
        "c1": "host-0", "sv.0": "host-1"}}),
                 "deploy.placement", "leaves sv.1 unplaced (a placement "
                                     "names a machine for every container)",
                 id="container-unplaced"),
]


class TestOneRuleBook:
    @pytest.mark.parametrize("document, pointer, message", RULE_CASES)
    def test_every_front_door_refuses_alike(self, tmp_path, document,
                                            pointer, message):
        """The validator, compile() and both lint entries report the one
        broken rule, at the same pointer, in the same words.  (A ping
        from ``ghost`` used to compile and then fail at run time with
        ``KeyError: no TCAL attached``, one to a bridge or a replicated
        service's bare name likewise, and a flow there read 0 b/s.)"""
        assert [(error.path, error.message)
                for error in _errors(document)] == [(pointer, message)]
        builder = scenario_from_scn(document, validate=False)
        with pytest.raises(TopologyError) as info:
            builder.compile()
        assert str(info.value).endswith(f"invalid:\n  {pointer}: {message}")
        expected = [f"error: {pointer}: {message}"]
        assert [str(item) for item in lint_scenario(builder)
                if item.severity == "error"] == expected
        path = tmp_path / "case.scn"
        path.write_text(json.dumps(document))
        assert [str(item) for item in lint_file(str(path))
                if item.severity == "error"] == expected

    def test_two_one_way_links_make_one_pair(self):
        document = _with(links=[
            {"orig": "c1", "dest": "s1", "bidirectional": False},
            {"orig": "s1", "dest": "c1", "bidirectional": False},
            {"orig": "s1", "dest": "sv"}])
        assert _errors(document) == []
        scenario_from_scn(document).compile()

    def test_an_event_may_name_a_node_an_earlier_event_joins(self):
        document = _with(events=[
            {"time": 5.0, "action": "join", "name": "late"},
            {"time": 1.0, "action": "join", "name": "early"},
            {"time": 6.0, "action": "join_link", "orig": "s1",
             "dest": "late"}])
        assert _errors(document) == []
        scenario_from_scn(document).compile()


# --------------------------------------------------------------------------
# The round-trip guarantee.
# --------------------------------------------------------------------------
def _assert_roundtrip(builder):
    compiled = builder.compile()
    text = dumps_scn(compiled)
    reloaded = loads_scn(text, source=compiled.name).compile()
    assert reloaded.describe() == compiled.describe()
    assert reloaded.path_table() == compiled.path_table()
    assert dumps_scn(reloaded) == text


class TestRoundTrip:
    @pytest.mark.parametrize(
        "example", sorted(EXAMPLES_DIR.glob("*.py")),
        ids=lambda path: path.stem)
    def test_every_example_roundtrips_byte_identically(self, example):
        _assert_roundtrip(Scenario.from_file(str(example)))

    @pytest.mark.parametrize("load, description", [
        pytest.param(Scenario.from_text, test_topology.LISTING_1_AND_2,
                     id="text-listing-1-and-2"),
        pytest.param(Scenario.from_text, test_scenario.FIGURE1_TEXT,
                     id="text-figure1"),
        pytest.param(Scenario.from_text, test_end_to_end.DESCRIPTION,
                     id="text-end-to-end"),
        pytest.param(Scenario.from_text, _TEXT, id="text-up-only"),
        pytest.param(Scenario.from_dict, test_topology.figure1_description(),
                     id="dict-figure1"),
        pytest.param(Scenario.from_xml, test_topology.TestModelnetXml.XML,
                     id="xml-modelnet"),
        pytest.param(Scenario.from_xml, _XML, id="xml-flat"),
    ])
    def test_every_description_format_equals_its_scn(self, load,
                                                     description):
        """The repo's text/dict/XML fixtures load to the same scenario as
        the .scn document dumped from them (``_TEXT`` names no ``down``
        capacity: an unlimited direction must dump, too)."""
        builder = load(description)
        reloaded = loads_scn(dumps_scn(builder))
        for part in ("_services", "_bridges", "_links", "_events"):
            assert getattr(reloaded, part) == getattr(builder, part)
        _assert_roundtrip(builder)

    def test_unit_strings_load_liberally(self):
        document = _document(links=[{"orig": "a", "dest": "b",
                                     "latency": "10ms", "up": "100Mbps",
                                     "loss": "2%"}])
        compiled = scenario_from_scn(document).compile()
        link = next(iter(compiled.topology.links()))
        assert link.properties.latency == pytest.approx(0.010)
        assert link.properties.bandwidth == pytest.approx(100e6)
        assert link.properties.loss == pytest.approx(0.02)

    def test_unlimited_bandwidth_roundtrips(self):
        builder = (Scenario.build("unshaped")
                   .service("a").service("b")
                   .link("a", "b", latency="1ms"))
        document = scn_document(builder.compile())
        # Unlimited is the default rate, so the canonical dump omits it
        # (and never emits bare IEEE infinities — allow_nan=False).
        assert "up" not in document["links"][0]
        assert "inf" not in dumps_scn(builder.compile())
        _assert_roundtrip(builder)

    def test_scripts_lower_to_events_on_dump(self):
        builder = (_simple_builder("storm")
                   .script("at 2 set link a--s1 latency=50ms"))
        document = scn_document(builder.compile())
        assert "scripts" not in document
        assert any(event["action"] == "set_link"
                   for event in document["events"])
        _assert_roundtrip(builder)

    def test_custom_workload_refuses_to_dump(self):
        builder = (_simple_builder("custom")
                   .workload(custom("c1", install=lambda system: None)))
        with pytest.raises(ScnError) as info:
            dumps_scn(builder.compile())
        assert "serializable" in str(info.value)


# --------------------------------------------------------------------------
# The fuzzer: deterministic, valid, round-trip-clean at volume.
# --------------------------------------------------------------------------
class TestFuzzer:
    def test_same_seed_same_bytes(self):
        first = dumps_scn(generate_scenario(7, 3).compile())
        second = dumps_scn(generate_scenario(7, 3).compile())
        assert first == second

    def test_distinct_indices_differ(self):
        corpus = {dumps_scn(builder.compile())
                  for builder in map(partial(generate_scenario, 11),
                                     range(10))}
        assert len(corpus) == 10

    def test_thousand_fuzzed_scenarios_roundtrip(self):
        budget = FuzzBudget.scaled("small")
        for index in range(1000):
            builder = generate_scenario(42, index, budget)
            compiled = builder.compile()
            text = dumps_scn(compiled)
            reloaded = loads_scn(text, source=compiled.name).compile()
            assert reloaded.describe() == compiled.describe(), \
                f"round-trip broke at seed=42 index={index}"
            assert reloaded.path_table() == compiled.path_table()
            # The text leg: describe() is the listing language, and its
            # lowering must reconstruct the same scenario.
            reparsed = Scenario.from_text(compiled.describe()).compile()
            assert reparsed.describe() == compiled.describe(), \
                f"text round-trip broke at seed=42 index={index}"
            assert reparsed.path_table() == compiled.path_table()

    def test_fuzzed_scenarios_lint_clean(self):
        for builder in map(partial(generate_scenario, 5), range(50)):
            diagnostics = lint_scenario(builder)
            assert not [d for d in diagnostics if d.severity == "error"], \
                f"{builder}: {[str(d) for d in diagnostics]}"


# --------------------------------------------------------------------------
# Semantic diff.
# --------------------------------------------------------------------------
class TestDiff:
    def test_identical_builders_diff_empty(self):
        difference = diff_scenarios(_simple_builder().compile(),
                                    _simple_builder().compile())
        assert not difference
        assert "identical" in difference.to_text()

    def test_changed_link_property(self):
        after = (Scenario.build("simple")
                 .service("a", image="iperf")
                 .service("b", image="nginx")
                 .bridges("s1")
                 .link("a", "s1", latency="9ms", up="10Mbps")
                 .link("s1", "b", latency="5ms", up="10Mbps")
                 .workload(flow("a", "b", rate="2Mbps", protocol="udp",
                                key="f1"))
                 .deploy(machines=1, seed=3, duration=10.0))
        entries = list(diff_scenarios(_simple_builder().compile(),
                                      after.compile()))
        assert any(entry.op == "~" and entry.kind == "link"
                   and "a->s1" in entry.subject for entry in entries)

    def test_added_and_removed_entities(self):
        before = _simple_builder().compile()
        after = (_simple_builder()
                 .service("c", image="alpine")
                 .link("c", "s1", latency="1ms", up="1Mbps")
                 .at(3, set_link("a", "s1", latency="2ms"))
                 .compile())
        entries = list(diff_scenarios(before, after))
        assert any(e.op == "+" and e.kind == "service" and e.subject == "c"
                   for e in entries)
        assert any(e.op == "+" and e.kind == "event" for e in entries)

    def test_deploy_change_shows_default(self):
        before = _simple_builder().compile()
        after = _simple_builder().deploy(machines=4).compile()
        entries = list(diff_scenarios(before, after))
        assert any(e.kind == "deploy" and "machines" in e.subject
                   for e in entries)

    @pytest.mark.parametrize("before, after, detail", [
        pytest.param(50, 100, "count 50 -> (default)", id="back-to-default"),
        pytest.param(100, 50, "count (default) -> 50", id="off-the-default"),
    ])
    def test_workload_field_at_its_default(self, before, after, detail):
        """The canonical dump omits a field at its default; the diff must
        still see it move, in both directions."""
        def probing(count):
            return (_simple_builder()
                    .workload(ping("a", "b", count=count, key="p1"))
                    .compile())
        entries = list(diff_scenarios(probing(before), probing(after)))
        assert [str(entry) for entry in entries] == [
            f"~ workload p1: {detail}"]


# --------------------------------------------------------------------------
# The differential harness.
# --------------------------------------------------------------------------
class TestDifferential:
    def test_agreeing_backends_report_ok(self):
        compiled = generate_scenario(1, 0).compile()
        report = run_differential(compiled, ("kollaps", "trickle"))
        assert report.ok, report.summary()
        assert report.compared

    def test_projection_drops_packet_workloads_for_trickle(self):
        builder = _simple_builder("probing")
        builder.workload(ping("a", "b", count=5, key="p1"))
        compiled = builder.compile()
        report = run_differential(compiled, ("kollaps", "trickle"))
        assert "p1" in report.dropped_workloads
        assert "trickle" in report.dropped_workloads["p1"]
        assert "f1" in report.compared

    def test_projection_drops_events_without_dynamic_support(self):
        builder = _simple_builder("dynamic")
        builder.at(3, set_link("a", "s1", latency="9ms"))
        compiled = builder.compile()
        from repro.scenario.backends import resolve_backend
        backends = [resolve_backend("kollaps"), resolve_backend("trickle")]
        projected, events_dropped, _ = project_common(compiled, backends)
        assert events_dropped == 1
        assert len(projected.schedule) == 0

    def test_broken_backend_is_caught(self):
        class BrokenBackend(BareMetalBackend):
            """Deliberately wrong: doubles every reported statistic."""

            name = "broken"

            def collect(self, until):
                results, metrics = super().collect(until)
                metrics = {key: dataclasses.replace(
                    record, summary={name: value * 2 for name, value
                                     in record.summary.items()})
                    for key, record in metrics.items()}
                return results, metrics

        register_backend("broken", BrokenBackend)
        compiled = generate_scenario(2, 0).compile()
        report = run_differential(compiled, ("baremetal", "broken"))
        assert not report.ok
        assert any(finding.kind == "metric" and finding.backend == "broken"
                   for finding in report.findings)
        assert all(finding.deviation > report.tolerance
                   for finding in report.findings
                   if finding.kind == "metric")

    def test_backend_error_becomes_finding(self):
        class ExplodingBackend(BareMetalBackend):
            name = "exploding"

            def prepare(self, compiled):
                raise RuntimeError("boom")

        register_backend("exploding", ExplodingBackend)
        compiled = generate_scenario(3, 0).compile()
        report = run_differential(compiled, ("kollaps", "exploding"))
        assert any(finding.kind == "error" and "boom" in finding.detail
                   for finding in report.findings)

    def test_needs_two_backends(self):
        with pytest.raises(ValueError):
            run_differential(_simple_builder().compile(), ("kollaps",))

    def test_report_to_dict_is_json_clean(self):
        compiled = generate_scenario(4, 0).compile()
        report = run_differential(compiled, ("kollaps", "trickle"))
        encoded = json.loads(json.dumps(report.to_dict()))
        assert encoded["scenario"] == compiled.name
        assert encoded["backends"] == ["kollaps", "trickle"]


# --------------------------------------------------------------------------
# Lint as a library.
# --------------------------------------------------------------------------
class TestLint:
    def test_compile_error_is_diagnostic(self):
        builder = (Scenario.build("broken")
                   .service("a")
                   .link("a", "ghost", latency="1ms", up="1Mbps"))
        diagnostics = lint_scenario(builder)
        assert any(d.severity == "error" and "ghost" in d.message
                   for d in diagnostics)

    def test_a_custom_workload_keeps_the_warnings(self):
        """A builder whose workload cannot dump to ``.scn`` is still
        judged by the rule book: its warnings are not skipped."""
        builder = (_simple_builder().service("idle")
                   .workload(custom("probe", lambda system: None)))
        assert [str(item) for item in lint_scenario(builder)] == [
            "warning: services[2]: node 'idle' is declared but never linked"]

    def test_diagnostic_renders_with_pointer(self):
        diagnostic = Diagnostic("error", "links[2].up", "bad rate")
        assert str(diagnostic) == "error: links[2].up: bad rate"
