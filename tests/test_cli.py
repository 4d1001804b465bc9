"""Tests for the command-line front end."""

import json
import shutil
from pathlib import Path
from typing import NamedTuple, Optional

import pytest
from test_scenario_dsl import MALFORMED_DESCRIPTIONS

from repro.cli import main
from repro.scenario import Scenario, ping
from repro.scenario.dsl import dump_scn

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"

DESCRIPTION = """\
experiment:
  services:
    name: c1
    image: "iperf"
    name: sv
    image: "nginx"
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
    orig: s2
    dest: sv
    latency: 5
    up: 50Mbps
    down: 50Mbps
"""

SCENARIO = """\
# slow the backbone mid-run, then restore it
at 2 set link s1--s2 latency=80ms
at 4 set link s1--s2 latency=20ms
"""


@pytest.fixture
def description_file(tmp_path):
    path = tmp_path / "experiment.txt"
    path.write_text(DESCRIPTION)
    return str(path)


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "scenario.storm"
    path.write_text(SCENARIO)
    return str(path)


class TestValidate:
    def test_prints_collapsed_paths(self, description_file, capsys):
        assert main(["validate", description_file]) == 0
        out = capsys.readouterr().out
        assert "c1 -> sv" in out
        assert "10Mbps" in out      # min bandwidth on the path
        assert "35ms" in out        # 10+20+5 ms end-to-end

    def test_with_scenario(self, description_file, scenario_file, capsys):
        assert main(["validate", description_file,
                     "--scenario", scenario_file]) == 0
        assert "dynamic events: 2" in capsys.readouterr().out

    def test_missing_file_exits_cleanly(self, tmp_path, capsys):
        assert main(["validate", str(tmp_path / "nope.txt")]) == 1
        err = capsys.readouterr().err
        assert "nope.txt" in err
        assert "error" in err

    def test_bad_description_reports_diagnostics(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text(DESCRIPTION.replace("dest: sv", "dest: ghost"))
        assert main(["validate", str(bad)]) == 1
        err = capsys.readouterr().err
        assert "ghost" in err
        assert "error(s)" in err

    @pytest.mark.parametrize("verb", [["validate"], ["scenario", "lint"]],
                             ids=" ".join)
    @pytest.mark.parametrize("name, content, expected",
                             MALFORMED_DESCRIPTIONS)
    def test_malformed_text_and_xml_get_pointer_diagnostics(
            self, tmp_path, capsys, verb, name, content, expected):
        """Exit 1 and a JSON-path diagnostic — never a traceback — for
        every format, not only .scn."""
        bad = tmp_path / name
        bad.write_text(content)
        assert main(verb + [str(bad)]) == 1
        assert expected in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["plan", "{}"], ["run", "{}", "--duration", "1"],
        ["scenario", "script", "{}", "unread.storm"]],
        ids=["plan", "run", "scenario-script"])
    @pytest.mark.parametrize("links, pointer", [
        ([{"orig": "a", "dest": "ghost"}],
         "links[0].dest: undeclared node 'ghost'"),
        ([{"orig": "a", "dest": "b"}, {"orig": "b", "dest": "a"}],
         "links[1]: duplicate link ('b', 'a') (first declared at links[0])"),
    ], ids=["undeclared-node", "duplicate-link"])
    def test_every_verb_refuses_with_diagnostics(self, tmp_path, capsys,
                                                 argv, links, pointer):
        """An invalid description gets its diagnostics and exit 1 from
        every verb that loads it, as from ``validate``."""
        bad = tmp_path / "bad.scn"
        bad.write_text(json.dumps({"scn": 1, "services": [{"name": "a"},
                                                          {"name": "b"}],
                                   "links": links}))
        assert main([word.format(bad) for word in argv]) == 1
        err = capsys.readouterr().err
        assert f"error: {pointer}" in err
        assert "Traceback" not in err


class TestRun:
    def test_run_with_flow(self, description_file, capsys):
        assert main(["run", description_file, "--duration", "5",
                     "--machines", "2", "--flow", "c1:sv"]) == 0
        out = capsys.readouterr().out
        assert "workload c1->sv: throughput_mean = " in out

    def test_flow_to_no_container_exits_one(self, description_file,
                                            capsys):
        """``sv`` has one replica, so its container is ``sv``: a flow to
        ``sv.0`` is refused before it runs, not read as 0 b/s."""
        assert main(["run", description_file, "--duration", "1",
                     "--flow", "c1:sv.0"]) == 1
        assert "workload endpoint 'sv.0' names no declared service or " \
            "container" in capsys.readouterr().err

    def test_run_with_scenario(self, description_file, scenario_file,
                               capsys):
        assert main(["run", description_file, "--duration", "5",
                     "--scenario", scenario_file]) == 0
        capsys.readouterr()

    def test_traced_run_summary_lists_the_loop_counters(
            self, description_file, tmp_path, capsys, monkeypatch):
        from repro import telemetry
        monkeypatch.delenv(telemetry.TRACE_ENV_VAR, raising=False)
        telemetry.metrics.clear()
        trace = str(tmp_path / "trace")
        try:
            assert main(["run", description_file, "--duration", "3",
                         "--machines", "2", "--flow", "c1:sv",
                         "--trace", trace]) == 0
        finally:
            telemetry.disable()
            telemetry.metrics.clear()
        capsys.readouterr()
        assert main(["trace", "summary", trace]) == 0
        out = capsys.readouterr().out
        assert "layer shares" in out and "counters:" in out
        for name in ("manager.loop_iterations", "manager.floor_memo_hits",
                     "sharing.closed_form", "fluid.steps"):
            assert name in out

    def test_run_reaches_an_event_past_thirty_seconds(self, tmp_path,
                                                      capsys):
        """With no --duration a run lasts as long as ``compiled.run()``
        makes it: past the last event, at least 30 s."""
        path = tmp_path / "late.txt"
        path.write_text(DESCRIPTION + "dynamic:\n  orig: s1\n  dest: s2\n"
                                      "  latency: 80\n  time: 45\n")
        assert main(["run", str(path)]) == 0
        out = capsys.readouterr().out
        assert "ran to t=46s" in out
        assert "state from t=45.000s" in out

    def test_run_on_baseline_backend_reports_metrics(self, description_file,
                                                     capsys):
        assert main(["run", description_file, "--duration", "5",
                     "--backend", "baremetal", "--flow", "c1:sv"]) == 0
        out = capsys.readouterr().out
        assert "backend: baremetal" in out
        assert "workload c1->sv" in out

    def test_run_incompatible_backend_fails_cleanly(self, tmp_path, capsys):
        # Trickle has no packet plane; the ping workload must surface as
        # one clean message, not a traceback.
        module = tmp_path / "pinger.py"
        module.write_text(
            "from repro.scenario import Scenario, ping\n"
            "SCENARIO = (Scenario.build('demo')\n"
            "            .service('a').service('b')\n"
            "            .link('a', 'b', latency='1ms', up='1Mbps')\n"
            "            .workload(ping('a', 'b', count=5))\n"
            "            .deploy(seed=7, duration=2.0))\n")
        assert main(["run", str(module), "--backend", "trickle"]) == 1
        err = capsys.readouterr().err
        assert "cannot run on the 'trickle' backend" in err
        assert "packet plane" in err

    def test_run_unknown_backend_fails_cleanly(self, description_file,
                                               capsys):
        assert main(["run", description_file, "--duration", "5",
                     "--backend", "ns3"]) == 1
        err = capsys.readouterr().err
        assert "ns3" in err and "kollaps" in err


class TestPlan:
    def test_swarm_plan(self, description_file, capsys):
        assert main(["plan", description_file, "--machines", "2"]) == 0
        out = capsys.readouterr().out
        assert "services:" in out
        assert "kollaps-bootstrapper:" in out
        assert "c1 -> host-0" in out

    def test_kubernetes_plan(self, description_file, capsys):
        assert main(["plan", description_file,
                     "--orchestrator", "kubernetes"]) == 0
        out = capsys.readouterr().out
        assert "kind: DaemonSet" in out
        assert "bootstrapper=no" in out


class TestScenario:
    def test_compiles_and_lists_events(self, description_file,
                                       scenario_file, capsys):
        assert main(["scenario", "script", description_file,
                     scenario_file]) == 0
        out = capsys.readouterr().out
        assert "set_link" in out
        assert "s1->s2" in out
        assert out.count("t=") == 2

    def test_bad_scenario_fails(self, description_file, tmp_path, capsys):
        bad = tmp_path / "bad.storm"
        bad.write_text("at 1 leave link s1--missing\n")
        assert main(["scenario", "script", description_file, str(bad)]) == 1
        assert "no such link: ('s1', 'missing')" in capsys.readouterr().err

    @pytest.mark.parametrize("script, pointer", [
        ("at 1 set link nope--s1 latency=5ms\n",
         "error: compile: line 1: no such link: ('nope', 's1')"),
        ("hello world\n", "error: compile: line 1: directives start with "
                          "'at' or 'from', got 'hello'"),
        (None, "error: document: [Errno 2] No such file or directory"),
    ], ids=["unknown-link", "bad-directive", "missing-file"])
    def test_bad_script_reports_a_pointer(self, tmp_path, capsys, script,
                                          pointer):
        """A bad script gets the diagnostics ``validate --scenario`` prints
        for it, and exit 1, never a traceback."""
        description = str(EXAMPLES / "quickstart.scn")
        path = tmp_path / "script.storm"
        if script is not None:
            path.write_text(script)
        assert main(["scenario", "script", description, str(path)]) == 1
        err = capsys.readouterr().err
        assert f"{description}: {pointer}" in err
        assert "Traceback" not in err


class TestScenarioLint:
    def test_clean_file_exits_zero(self, description_file, capsys):
        assert main(["scenario", "lint", description_file]) == 0
        assert capsys.readouterr().err == ""

    def test_error_goes_to_stderr_exit_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.scn"
        bad.write_text('{"scn": 1, "name": "x", "services": '
                       '[{"name": "a"}], "links": '
                       '[{"orig": "a", "dest": "ghost", "up": "1Mbps"}]}\n')
        assert main(["scenario", "lint", str(bad)]) == 1
        err = capsys.readouterr().err
        assert "ghost" in err
        assert "error" in err

    def test_warnings_exit_zero(self, tmp_path, capsys):
        isolated = tmp_path / "isolated.scn"
        isolated.write_text('{"scn": 1, "name": "x", "services": '
                            '[{"name": "a"}, {"name": "b"}, {"name": "c"}],'
                            ' "links": [{"orig": "a", "dest": "b", '
                            '"up": "1Mbps"}]}\n')
        assert main(["scenario", "lint", str(isolated)]) == 0
        err = capsys.readouterr().err
        assert "warning" in err
        assert "c" in err

    def test_aggregates_across_files(self, description_file, tmp_path,
                                     capsys):
        bad = tmp_path / "bad.scn"
        bad.write_text('{"scn": 99}\n')      # a bad version and no service
        assert main(["scenario", "lint", description_file, str(bad)]) == 1
        err = capsys.readouterr().err
        assert "2 error(s) in 2 file(s)" in err


class TestScenarioDiff:
    def test_identical_semantics_exit_zero(self, description_file,
                                           tmp_path, capsys):
        exported = tmp_path / "same.scn"
        assert main(["scenario", "export", description_file,
                     "-o", str(exported)]) == 0
        capsys.readouterr()
        assert main(["scenario", "diff", description_file,
                     str(exported)]) == 0
        assert "identical" in capsys.readouterr().out

    def test_real_change_exits_one(self, description_file, tmp_path,
                                   capsys):
        changed = tmp_path / "changed.txt"
        changed.write_text(DESCRIPTION.replace("latency: 20",
                                               "latency: 25"))
        assert main(["scenario", "diff", description_file,
                     str(changed)]) == 1
        out = capsys.readouterr().out
        assert "~ link s1->s2" in out
        assert "0.02 -> 0.025" in out

    def test_load_failure_exits_two(self, description_file, tmp_path,
                                    capsys):
        gone = tmp_path / "gone.scn"
        assert main(["scenario", "diff", description_file, str(gone)]) == 2
        assert f"{gone}: error: document: [Errno 2] No such file" in \
            capsys.readouterr().err

    def test_workload_field_back_at_its_default_exits_one(self, tmp_path,
                                                          capsys):
        """A field the canonical dump omits (``count: 100``) against one
        it writes (``count: 50``): a difference, not a traceback."""
        paths = []
        for count in (50, 100):
            builder = (Scenario.build("probe").service("a").service("b")
                       .link("a", "b", latency="1ms", up="1Mbps")
                       .workload(ping("a", "b", count=count, key="p1")))
            paths.append(tmp_path / f"count{count}.scn")
            dump_scn(builder, paths[-1])
        assert main(["scenario", "diff", str(paths[0]), str(paths[1])]) == 1
        assert "~ workload p1: count 50 -> (default)" in \
            capsys.readouterr().out
        assert main(["scenario", "diff", str(paths[1]), str(paths[0])]) == 1
        assert "count (default) -> 50" in capsys.readouterr().out


    def test_script_that_does_not_compile_fails_cleanly(self, tmp_path,
                                                        capsys):
        """A THUNDERSTORM script error is a load failure for every verb,
        as ``validate`` already reports it — never a traceback."""
        bad = tmp_path / "bad_script.scn"
        bad.write_text('{"scn": 1, "name": "x", "services": [{"name": "a"}, '
                       '{"name": "b"}], "links": [{"orig": "a", "dest": "b", '
                       '"up": "1Mbps"}], '
                       '"scripts": ["at 1 leave link a--missing\\n"]}\n')
        assert main(["validate", str(bad)]) == 1
        assert "missing" in capsys.readouterr().err
        pointer = f"{bad}: error: compile: line 1: no such link"
        assert main(["scenario", "diff", str(bad), str(bad)]) == 2
        assert pointer in capsys.readouterr().err
        assert main(["scenario", "export", str(bad)]) == 1
        assert pointer in capsys.readouterr().err


class TestScenarioExport:
    def test_exported_file_revalidates(self, description_file,
                                       scenario_file, tmp_path, capsys):
        out_path = tmp_path / "exported.scn"
        assert main(["scenario", "export", description_file,
                     "--scenario", scenario_file, "-o", str(out_path)]) == 0
        capsys.readouterr()
        assert main(["validate", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "dynamic events: 2" in out
        assert "c1 -> sv" in out

    def test_export_to_stdout(self, description_file, capsys):
        assert main(["scenario", "export", description_file]) == 0
        out = capsys.readouterr().out
        assert '"scn": 1' in out
        assert '"orig": "c1"' in out

    def test_export_failure_exits_one(self, tmp_path, capsys):
        gone = tmp_path / "gone.txt"
        assert main(["scenario", "export", str(gone)]) == 1
        assert f"{gone}: error: document: [Errno 2] No such file" in \
            capsys.readouterr().err


class TestScenarioFuzz:
    def test_check_corpus_and_bench(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        bench = tmp_path / "bench.json"
        assert main(["scenario", "fuzz", "--seed", "3", "--count", "4",
                     "--check", "--out", str(corpus),
                     "--bench", str(bench), "--quiet"]) == 0
        scn_files = sorted(corpus.glob("*.scn"))
        assert len(scn_files) == 4
        assert main(["scenario", "lint",
                     *[str(path) for path in scn_files]]) == 0
        import json
        recorded = json.loads(bench.read_text())
        assert recorded["count"] == 4
        assert recorded["failures"] == 0
        assert recorded["generate_per_sec"] > 0

    def test_differential_backends(self, capsys):
        assert main(["scenario", "fuzz", "--seed", "5", "--count", "2",
                     "--differential", "kollaps,trickle"]) == 0
        err = capsys.readouterr().err
        assert "kollaps vs trickle agree" in err


class TestParserShape:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_bad_flow_spec(self, description_file):
        with pytest.raises(SystemExit):
            main(["run", description_file, "--flow", "justonename"])

    def test_malformed_flow_rate_errors_cleanly(self, description_file,
                                                capsys):
        with pytest.raises(SystemExit):
            main(["run", description_file, "--flow", "c1:sv:5Mbxps"])
        err = capsys.readouterr().err
        assert "bad rate in flow spec" in err
        assert "5Mbxps" in err


class TestValidatePython:
    def test_validates_example_module(self, tmp_path, capsys):
        module = tmp_path / "scenario_module.py"
        module.write_text(
            "from repro.scenario import Scenario\n"
            "SCENARIO = (Scenario.build('demo')\n"
            "            .service('a').service('b')\n"
            "            .link('a', 'b', latency='1ms', up='1Mbps'))\n")
        assert main(["validate", str(module)]) == 0
        assert "a -> b" in capsys.readouterr().out

    def test_module_without_scenario_rejected(self, tmp_path, capsys):
        module = tmp_path / "empty_module.py"
        module.write_text("x = 1\n")
        assert main(["validate", str(module)]) == 1
        err = capsys.readouterr().err
        assert "SCENARIO" in err
        assert "error" in err

    def test_run_preserves_module_deploy_settings(self, tmp_path, capsys):
        """`run` must not clobber a .py scenario's machines/seed/duration
        with argparse defaults when the flags are not given."""
        module = tmp_path / "deployed.py"
        module.write_text(
            "from repro.scenario import Scenario, flow\n"
            "SCENARIO = (Scenario.build('demo')\n"
            "            .service('a').service('b')\n"
            "            .link('a', 'b', latency='1ms', up='1Mbps')\n"
            "            .workload(flow('a', 'b', key='t'))\n"
            "            .deploy(machines=2, seed=7, duration=2.0))\n")
        assert main(["run", str(module)]) == 0
        out = capsys.readouterr().out
        assert "host-1" in out   # the module's machines=2 was honoured


# --------------------------------------------------------------------------
# The malformed-input matrix: every door that reads a description, every
# kind of bad input.  Each cell expects its exit code and a pointer line,
# never a traceback.
# --------------------------------------------------------------------------
class Bad(NamedTuple):
    file: str
    content: Optional[str]      # None: the file does not exist
    pointer: str
    message: str                # the start of it; {path} is the file
    refused_by: Optional[str]   # "from_file" or "compile"; None: neither


def _scn(**document):
    return json.dumps({"scn": 1, **document})


_PAIR = {"services": [{"name": "a"}, {"name": "b"}],
         "links": [{"orig": "a", "dest": "b"}]}
_TRIO = {"services": [{"name": "c1"}, {"name": "sv", "replicas": 2}],
         "bridges": ["s1"],
         "links": [{"orig": "c1", "dest": "s1"}, {"orig": "s1", "dest": "sv"}]}
_FAST = {"services": [{"name": "a"}, {"name": "b"}],
         "links": [{"orig": "a", "dest": "b", "up": "50Gbps"}]}
_FAST_TEXT = """\
experiment:
  services:
    name: a
    name: b
  links:
    orig: a
    dest: b
    latency: 1
    up: 50Gbps
"""
_RAISED = {"services": [{"name": "a"}, {"name": "b"}],
           "links": [{"orig": "a", "dest": "b", "up": "1Gbps"}],
           "events": [{"time": 1, "action": "set_link", "orig": "a",
                       "dest": "b", "changes": {"bandwidth": "50Gbps"}}]}
_MODULE = ("from repro.scenario import Scenario, custom, flow, ping\n"
           "SCENARIO = (Scenario.build('pair').service('a').service('b')\n"
           "            .link('a', 'b', latency='1ms', up='1Mbps'){})\n")

MALFORMED = {
    "unreadable": Bad("gone.scn", None, "document",
                      "[Errno 2] No such file or directory", "from_file"),
    "bad-json": Bad("bad.scn", '{"scn": 1,', "document", "{path}: ",
                    "from_file"),
    "bad-xml": Bad("bad.xml", "<topology><vertex", "document",
                   "malformed XML topology: unclosed token", "from_file"),
    "bad-py-syntax": Bad("bad.py", "SCENARIO = (\n", "line 1",
                         "'(' was never closed", "from_file"),
    "no-scn-stamp": Bad("stamp.scn", json.dumps(_PAIR), "scn",
                        "missing version stamp (expected scn: 1)",
                        "from_file"),
    "unknown-key": Bad("key.scn", _scn(**_PAIR, bogus=1), "bogus",
                       "unknown top-level key", "from_file"),
    "unit-error": Bad("unit.scn", _scn(services=_PAIR["services"], links=[
        {"orig": "a", "dest": "b", "latency": "10 parsecs"}]),
                      "links[0].latency", "unknown time unit 'parsecs'",
                      "from_file"),
    "rule-book": Bad("ghost.scn", _scn(services=_PAIR["services"], links=[
        {"orig": "a", "dest": "ghost"}]), "links[0].dest",
                     "undeclared node 'ghost'", "from_file"),
    "rule-book-py": Bad("ghost.py", _MODULE.format(
        ".workload(ping('a', 'ghost'))"), "workloads[0]",
                        "workload endpoint 'ghost' names no declared "
                        "service or container", "compile"),
    "py-body-raises": Bad("raises.py", "x = undefined_name\n", "document",
                          "NameError: name 'undefined_name' is not defined",
                          "from_file"),
    "py-without-scenario": Bad("empty.py", "x = 1\n", "document",
                               "'{path}' defines no SCENARIO", "from_file"),
    "time-dilation": Bad("dilation.scn", _scn(**_TRIO, deploy={
        "time_dilation": 0.5}), "deploy.time_dilation",
                         "expected a dilation factor >= 1", "from_file"),
    "loop-period": Bad("period.scn", _scn(**_TRIO, deploy={
        "loop_period": 0}), "deploy.loop_period",
                       "expected a period > 0 seconds", "from_file"),
    "fluid-dt": Bad("dt.scn", _scn(**_TRIO, deploy={"fluid_dt": 0}),
                    "deploy.fluid_dt", "expected a period > 0 seconds",
                    "from_file"),
    "placed-on-no-machine": Bad("host9.scn", _scn(**_TRIO, deploy={
        "placement": {"c1": "host-0", "sv.0": "host-9", "sv.1": "host-0"}}),
                                "deploy.placement",
                                "'sv.0' is placed on 'host-9'", "from_file"),
    "container-unplaced": Bad("unplaced.scn", _scn(**_TRIO, deploy={
        "placement": {"c1": "host-0", "sv.0": "host-0"}}),
                              "deploy.placement", "leaves sv.1 unplaced",
                              "from_file"),
    "deploy-rule-py": Bad("dilated.py", _MODULE.format(
        ".deploy(time_dilation=0.5)"), "deploy.time_dilation",
                          "expected a dilation factor >= 1", "compile"),
    # §6: no link may outrun the 40 Gb/s interconnect times the dilation.
    "infeasible-link": Bad("fast.scn", _scn(**_FAST), "links[0].up",
                           "asks for 50.0 Gb/s but the cluster interconnect "
                           "provides 40.0 Gb/s", "from_file"),
    "infeasible-link-text": Bad("fast.txt", _FAST_TEXT, "links[0].up",
                                "asks for 50.0 Gb/s", "from_file"),
    "infeasible-event": Bad("raise.scn", _scn(**_RAISED),
                            "events[0].changes.bandwidth",
                            "asks for 50.0 Gb/s", "from_file"),
    # Valid scenarios that one door cannot take.
    "custom-workload": Bad("custom.py", _MODULE.format(
        ".workload(custom('probe', needs=()))"), "workloads",
                           "workload 'probe' of type CustomWorkload is not "
                           ".scn-serializable", None),
    "mininet-budget": Bad("big.scn", _scn(services=[
        {"name": "a", "replicas": 1701}]), "backend",
                          "cannot run on the 'mininet' backend: 1701 "
                          "emulated elements exceed", None),
}

#: door -> (argv, exit code on a refusal)
DOORS = {
    "run": (["run", "{path}", "--duration", "1"], 1),
    "validate": (["validate", "{path}"], 1),
    "plan": (["plan", "{path}"], 1),
    "scenario-lint": (["scenario", "lint", "{path}"], 1),
    "scenario-diff": (["scenario", "diff", "{good}", "{path}"], 2),
    "scenario-export": (["scenario", "export", "{path}", "-o", "{out}"], 1),
    "scenario-script": (["scenario", "script", "{path}", "{script}"], 1),
}


def _cli_cells():
    for name, bad in MALFORMED.items():
        if bad.refused_by is None:
            continue
        for door, (argv, code) in DOORS.items():
            yield pytest.param(argv, code, name, id=f"{door}:{name}")
    argv, code = DOORS["scenario-export"]
    yield pytest.param(argv, code, "custom-workload",
                       id="scenario-export:custom-workload")
    for door in ("run", "plan"):
        argv, code = DOORS[door]
        yield pytest.param(argv + ["--backend", "mininet"], code,
                           "mininet-budget", id=f"{door}:mininet-budget")


#: A two-point campaign small enough to run inside a matrix cell.
TINY_CAMPAIGN = """\
from repro.campaign import Campaign
from repro.scenario import Scenario, flow


def pair(*, rate, seed=0):
    return (Scenario.build("pair").service("a").service("b")
            .link("a", "b", latency="1ms", up=rate)
            .workload(flow("a", "b", key="t"))
            .deploy(seed=seed, duration=0.5))


CAMPAIGN = (Campaign("tiny").scenario(pair).grid(rate=[1e6, 2e6])
            .backends("kollaps"))
"""


def _spoil_last_record(store: Path, spoil) -> None:
    path = store / "tiny" / "results.jsonl"
    *kept, last = path.read_text().splitlines(keepends=True)
    path.write_text("".join(kept) + spoil(last))


def _write(tmp_path, bad: Bad) -> str:
    path = tmp_path / bad.file
    if bad.content is not None:
        path.write_text(bad.content)
    return str(path)


class TestMalformedInputMatrix:
    @pytest.mark.parametrize("argv, code, name", _cli_cells())
    def test_cli_door(self, tmp_path, capsys, description_file,
                      scenario_file, argv, code, name):
        bad = MALFORMED[name]
        path = _write(tmp_path, bad)
        assert main([word.format(path=path, good=description_file,
                                 script=scenario_file,
                                 out=tmp_path / "out.scn")
                     for word in argv]) == code
        err = capsys.readouterr().err
        message = bad.message.format(path=path)
        assert f"{path}: error: {bad.pointer}: {message}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("door", ["from_file", "compile"])
    @pytest.mark.parametrize("name", [name for name, bad in MALFORMED.items()
                                      if bad.refused_by])
    def test_library_door(self, tmp_path, door, name):
        """``Scenario.from_file`` refuses what cannot be loaded and
        ``compile()`` the rest, each with an exception naming the
        problem."""
        bad = MALFORMED[name]
        path = _write(tmp_path, bad)
        if door == "from_file" and bad.refused_by == "compile":
            assert isinstance(Scenario.from_file(path), Scenario)
            return
        with pytest.raises(Exception) as info:
            Scenario.from_file(path).compile()
        assert bad.message.format(path=path) in \
            f"{info.type.__name__}: {info.value}"


    @pytest.mark.parametrize("door", ["run", "validate", "scenario-lint",
                                      "scenario-export", "scenario-script"])
    def test_script_capacity_door(self, tmp_path, capsys, door):
        """A capacity set by a THUNDERSTORM script is judged at compile
        time, on every door that takes a script (``plan`` takes none)."""
        path = _write(tmp_path, Bad("pair.scn", _scn(**_PAIR), "", "",
                                    None))
        script = tmp_path / "fast.storm"
        script.write_text("at 1 set link a--b up=50Gbps\n")
        argv, code = DOORS[door]
        if door != "scenario-script":
            argv = argv + ["--scenario", "{script}"]
        assert main([word.format(path=path, script=script,
                                 out=tmp_path / "out.scn")
                     for word in argv]) == code
        err = capsys.readouterr().err
        assert f"{path}: error: compile: script event at t=1s on a--b: " \
               "asks for 50.0 Gb/s" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("door", ["run", "validate", "plan",
                                      "scenario-lint"])
    @pytest.mark.parametrize("name", ["infeasible-link", "infeasible-event",
                                      "script"])
    def test_dilation_admits_it(self, tmp_path, capsys, door, name):
        """The same inputs under ``deploy.time_dilation: 2`` run (the
        listing-style text has no deploy section)."""
        script = tmp_path / "fast.storm"
        script.write_text("at 1 set link a--b up=50Gbps\n")
        document = {"infeasible-link": _FAST, "infeasible-event": _RAISED,
                    "script": _PAIR}[name]
        path = tmp_path / "dilated.scn"
        path.write_text(_scn(**document, deploy={"time_dilation": 2}))
        argv = [word.format(path=path) for word in DOORS[door][0]]
        if name == "script" and door != "plan":
            argv += ["--scenario", str(script)]
        assert main(argv) == 0, capsys.readouterr().err
        assert "error" not in capsys.readouterr().err

    @pytest.mark.parametrize("verb", ["status", "run", "report"])
    def test_garbled_record_is_a_torn_line(self, tmp_path, capsys, verb):
        """A stored record whose run does not decode is read as a torn
        tail line is: its point is missing, runs again, and its new record
        supersedes it."""
        source = tmp_path / "tiny.py"
        source.write_text(TINY_CAMPAIGN)
        garbled, torn = tmp_path / "garbled", tmp_path / "torn"
        assert main(["campaign", "run", str(source), "--store", str(garbled),
                     "--quiet"]) == 0
        shutil.copytree(garbled, torn)
        _spoil_last_record(garbled, lambda line: json.dumps(
            dict(json.loads(line), run={"garbage": 1}), sort_keys=True)
            + "\n")
        _spoil_last_record(torn, lambda line: line[:len(line) // 2])
        capsys.readouterr()
        outputs = []
        for store in (garbled, torn):
            assert main(["campaign", verb, str(source), "--store",
                         str(store)]) == 0
            captured = capsys.readouterr()
            assert "Traceback" not in captured.err
            outputs.append(captured.out.replace(str(store), "<store>"))
        assert outputs[0] == outputs[1]
        assert {"status": "missing: 1/2", "run": "1 resumed from store",
                "report": "1 points, 1 ok"}[verb] in outputs[0]
        if verb == "run":
            main(["campaign", "status", str(source), "--store", str(garbled)])
            assert "ok: 2/2" in capsys.readouterr().out

    @pytest.mark.parametrize("verb", ["run", "status", "report", "compact"])
    def test_campaign_door(self, tmp_path, capsys, verb):
        """A campaign source without ``CAMPAIGN`` is refused as the
        scenario doors refuse a description."""
        source = tmp_path / "empty.py"
        source.write_text("x = 1\n")
        assert main(["campaign", verb, str(source),
                     "--store", str(tmp_path / "campaigns")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"{source}: error: document: CampaignError: ")
        assert "Traceback" not in err


COUNTED = """\
import pathlib
tally = pathlib.Path(__file__).with_suffix(".runs")
tally.write_text((tally.read_text() if tally.exists() else "") + "x")
""" + _MODULE.format(".workload(flow('a', 'b', key='t'))")


@pytest.mark.parametrize("argv, reads_script", [
    (["run", "{module}", "--duration", "1", "--scenario", "{script}"], True),
    (["validate", "{module}", "--scenario", "{script}"], True),
    (["plan", "{module}"], False),
    (["scenario", "lint", "{module}", "--scenario", "{script}"], True),
    (["scenario", "diff", "{module}", "{module}.scn"], False),
    (["scenario", "export", "{module}", "--scenario", "{script}"], True),
    (["scenario", "script", "{module}", "{script}"], True),
], ids=["run", "validate", "plan", "scenario-lint", "scenario-diff",
        "scenario-export", "scenario-script"])
def test_each_command_loads_its_description_once(tmp_path, monkeypatch,
                                                 capsys, argv, reads_script):
    """A .py description's body runs once per command, and its script is
    read once, whatever the verb."""
    module = tmp_path / "counted.py"
    module.write_text(COUNTED)
    script = tmp_path / "slow.storm"
    script.write_text("at 1 set link a--b latency=5ms\n")
    dump_scn(Scenario.build("pair").service("a").service("b")
             .link("a", "b", latency="1ms", up="1Mbps"),
             tmp_path / "counted.py.scn")
    opened = []
    real_open = open

    def counting_open(file, *args, **kwargs):
        opened.append(str(file))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr("builtins.open", counting_open)
    status = main([word.format(module=module, script=script)
                   for word in argv])
    capsys.readouterr()
    assert status in (0, 1)         # diff: the two scenarios differ
    assert (tmp_path / "counted.runs").read_text() == "x"
    assert opened.count(str(script)) == (1 if reads_script else 0)
