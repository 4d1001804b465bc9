"""Tests for the command-line front end."""

import json
from pathlib import Path

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
        assert main(["scenario", "diff", description_file,
                     str(tmp_path / "gone.scn")]) == 2
        assert "cannot load" in capsys.readouterr().err

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
        assert main(["scenario", "diff", str(bad), str(bad)]) == 2
        assert "cannot load" in capsys.readouterr().err
        assert main(["scenario", "export", str(bad)]) == 1
        err = capsys.readouterr().err
        assert "cannot export" in err
        assert "line 1" in err


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
        assert main(["scenario", "export",
                     str(tmp_path / "gone.txt")]) == 1
        assert "cannot export" in capsys.readouterr().err


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
