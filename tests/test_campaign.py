"""Tests for the campaign subsystem: grid, executor, store, aggregate, CLI.

The acceptance contract: a >=24-point grid (2 backends x 3 seeds x
4 parameters) run with ``jobs=4`` produces the byte-identical aggregate
of a serial run, and a campaign interrupted mid-sweep re-executes only
the missing points on resume.
"""

from __future__ import annotations

import io
import json
import os

import pytest

from repro.campaign import (
    Campaign,
    CampaignError,
    CampaignEvent,
    Point,
    ResultStore,
    load_campaign,
)
from repro.dashboard import CampaignMonitor
from repro.scenario import Scenario, ScenarioRun, flow, ping
from repro.scenario.results import series_summary

RATES = [1e6, 2e6, 4e6, 8e6]


# --------------------------------------------------------------------------
# Factories (module-level: worker processes pickle them by reference).
# --------------------------------------------------------------------------
def pair(*, rate, seed=0):
    return (Scenario.build("pair")
            .service("a").service("b").bridge("s")
            .link("a", "s", latency="1ms", up=rate)
            .link("s", "b", latency="1ms", up=rate)
            .workload(flow("a", "b", key="bulk"))
            .deploy(machines=2, seed=seed, duration=2.0))


def flaky(*, rate, seed=0):
    if rate == 0:
        raise RuntimeError("this grid cell is broken")
    return pair(rate=rate, seed=seed)


def pinger(*, rate, seed=0):
    return (Scenario.build("pinger")
            .service("a").service("b")
            .link("a", "b", latency="1ms", up=rate)
            .workload(ping("a", "b", count=3, interval=0.05, key="p"))
            .deploy(seed=seed, duration=2.0))


def compiled_fixed_seed(*, rate):
    """Returns a *compiled* scenario and takes no seed parameter."""
    return pair(rate=rate).compile()


def kwargs_swallower(**kwargs):
    """Would swallow seed= via **kwargs while ignoring it entirely."""
    return pair(rate=kwargs["rate"])


def tuple_keyed(*, rate, seed=0):
    return (Scenario.build("tk")
            .service("a").service("b")
            .link("a", "b", latency="1ms", up=rate)
            .workload(flow("a", "b", key=("a", "b")))
            .deploy(seed=seed, duration=2.0))


_INTERRUPT = {"after": None}


def interruptible(*, rate, seed=0):
    remaining = _INTERRUPT["after"]
    if remaining is not None:
        if remaining <= 0:
            raise KeyboardInterrupt
        _INTERRUPT["after"] = remaining - 1
    return pair(rate=rate, seed=seed)


def sweep(factory=pair, name="sweep") -> Campaign:
    """The acceptance grid: 4 rates x 3 seeds x 2 backends = 24 points."""
    return (Campaign(name)
            .scenario(factory)
            .grid(rate=RATES)
            .seeds(3)
            .backends("kollaps", "baremetal"))


def probing_run() -> ScenarioRun:
    return (Scenario.build("probe")
            .service("c").service("s")
            .link("c", "s", latency="2ms", up="5Mbps")
            .workload(ping("c", "s", count=10, interval=0.05, key="p"),
                      flow("c", "s", key="f"))
            .deploy(seed=7, duration=3.0)
            .compile().run())


# --------------------------------------------------------------------------
# Grid expansion.
# --------------------------------------------------------------------------
class TestGrid:
    def test_expansion_count_and_order(self):
        points = sweep().points()
        assert len(points) == 24
        assert [point.index for point in points] == list(range(24))
        # First axis varies slowest, backends fastest.
        assert points[0].params == (("rate", RATES[0]),)
        assert (points[0].label, points[1].label) == ("kollaps", "baremetal")
        assert points[0].seed == points[1].seed == 0
        assert points[2].seed == 0 or points[2].seed == 1
        assert points[6].params == (("rate", RATES[1]),)

    def test_digest_is_content_not_position(self):
        forward = sweep().points()
        reversed_grid = (Campaign("sweep").scenario(pair)
                         .grid(rate=list(reversed(RATES))).seeds(3)
                         .backends("kollaps", "baremetal")).points()
        assert ({point.digest() for point in forward}
                == {point.digest() for point in reversed_grid})
        by_digest = {point.digest(): point for point in forward}
        for point in reversed_grid:
            twin = by_digest[point.digest()]
            assert twin.params == point.params
            assert twin.seed == point.seed
            assert twin.label == point.label

    def test_duplicate_backend_without_alias_rejected(self):
        campaign = (Campaign("dup").scenario(pair).grid(rate=[1e6])
                    .backend("trickle").backend("trickle"))
        with pytest.raises(CampaignError, match="labels must disambiguate"):
            campaign.points()

    def test_seeds_int_and_iterable(self):
        assert (Campaign("s").scenario(pair).seeds(3)._seeds
                == [0, 1, 2])
        assert (Campaign("s").scenario(pair).seeds([61])._seeds == [61])
        with pytest.raises(CampaignError):
            Campaign("s").seeds(0)

    def test_scalar_grid_value_becomes_axis(self):
        points = (Campaign("s").scenario(pair)
                  .grid(rate=5e6).points())
        assert len(points) == 1
        assert points[0].params == (("rate", 5e6),)

    def test_exclude_drops_cells_and_reindexes(self):
        campaign = sweep().exclude(
            lambda point: point.label == "baremetal"
            and point.params_dict()["rate"] == RATES[0])
        points = campaign.points()
        assert len(points) == 21
        assert [point.index for point in points] == list(range(21))

    def test_point_round_trips_through_json(self):
        point = sweep().points()[5]
        clone = Point.from_dict(json.loads(json.dumps(point.to_dict())))
        assert clone == point
        assert clone.digest() == point.digest()

    def test_reserved_axis_names_rejected(self):
        with pytest.raises(CampaignError, match="reserved"):
            Campaign("bad").scenario(pair).grid(workload=["a"])
        with pytest.raises(CampaignError, match="backend, seed"):
            Campaign("bad").scenario(pair).grid(seed=[1], backend=["x"])

    def test_until_is_part_of_point_identity(self, tmp_path):
        short = (Campaign("horizon").scenario(pair).grid(rate=[1e6])
                 .backends("kollaps").until(1.0))
        long = (Campaign("horizon").scenario(pair).grid(rate=[1e6])
                .backends("kollaps").until(9.0))
        assert short.points()[0].digest() != long.points()[0].digest()
        # Changing the horizon therefore re-executes rather than resuming.
        store = str(tmp_path)
        short.run(jobs=1, store=store)
        rerun = long.run(jobs=1, store=store)
        assert rerun.skipped == 0

    def test_factory_required(self):
        with pytest.raises(CampaignError, match="no scenario factory"):
            Campaign("empty").points()

    def test_campaign_name_must_be_plain(self):
        with pytest.raises(CampaignError):
            Campaign("a/b")


# --------------------------------------------------------------------------
# Execution: serial, parallel, failure capture.
# --------------------------------------------------------------------------
class TestExecution:
    def test_serial_run_provenance(self):
        result = (Campaign("one").scenario(pair).grid(rate=[1e6])
                  .seeds([4]).backends("kollaps").run(jobs=1))
        assert len(result) == 1 and result.results[0].ok
        run = result.results[0].run
        assert run.seed == 4
        assert run.machines == 2
        assert run.backend == "kollaps"
        assert dict(run.params) == {"rate": 1e6}
        assert run.to_dict()["seed"] == 4

    def test_parallel_matches_serial_byte_identically(self):
        serial = sweep().run(jobs=1)
        parallel = sweep().run(jobs=4)
        assert len(serial) == len(parallel) == 24
        assert not serial.failed() and not parallel.failed()
        serial_aggregate = serial.aggregate()
        parallel_aggregate = parallel.aggregate()
        assert serial_aggregate.to_csv() == parallel_aggregate.to_csv()
        assert (serial_aggregate.to_markdown()
                == parallel_aggregate.to_markdown())
        assert (serial_aggregate.to_csv(serial_aggregate.compare("baremetal"))
                == parallel_aggregate.to_csv(
                    parallel_aggregate.compare("baremetal")))

    def test_crashed_point_never_kills_the_sweep(self):
        result = (Campaign("flaky").scenario(flaky)
                  .grid(rate=[0, 1e6]).backends("kollaps").run(jobs=1))
        assert len(result) == 2
        (broken,) = result.failed()
        assert "this grid cell is broken" in broken.error
        assert len(result.ok()) == 1

    def test_incompatible_backend_is_captured_not_raised(self):
        result = (Campaign("na").scenario(pinger).grid(rate=[1e6])
                  .backends("kollaps", "trickle").run(jobs=1))
        assert len(result.ok()) == 1
        (cell,) = result.incompatible()
        assert cell.point.label == "trickle"
        assert "packet plane" in cell.error

    def test_compiled_factory_without_seed_parameter(self):
        result = (Campaign("fixed").scenario(compiled_fixed_seed)
                  .grid(rate=[1e6]).seeds(2).backends("kollaps").run(jobs=1))
        # Seed 0 matches the compiled config; seed 1 cannot be applied.
        by_seed = {cell.point.seed: cell for cell in result}
        assert by_seed[0].ok
        assert by_seed[1].status == "error"
        assert "'seed'" in by_seed[1].error

    def test_run_for_and_selectors(self):
        result = sweep().run(jobs=1)
        run = result.run_for(rate=RATES[1], seed=2, backend="baremetal")
        assert run.backend == "baremetal"
        assert dict(run.params) == {"rate": RATES[1]}
        with pytest.raises(CampaignError, match="matches"):
            result.run_for(rate=RATES[1])        # ambiguous
        with pytest.raises(CampaignError, match="no point"):
            result.run_for(rate=123.0, seed=0, backend="kollaps")
        with pytest.raises(CampaignError, match="unknown grid parameter"):
            result.run_for(rats=RATES[1], seed=0, backend="kollaps")

    def test_kwargs_only_factory_still_gets_distinct_seeds(self):
        result = (Campaign("kw").scenario(kwargs_swallower)
                  .grid(rate=[1e6]).seeds(2).backends("kollaps").run(jobs=1))
        assert not result.failed()
        seeds = {cell.run.seed for cell in result.ok()}
        assert seeds == {0, 1}       # deploy(seed=...) applied, not swallowed

    def test_factory_ref_survives_a_fresh_process_state(self, tmp_path):
        """Spawn-started workers cannot import a path-loaded campaign
        module by name; the executor ships a (module, path, qualname)
        reference instead, resolvable from a clean sys.modules."""
        import sys
        from repro.campaign.executor import factory_ref, resolve_factory
        path = tmp_path / "ref_campaign.py"
        path.write_text(CAMPAIGN_MODULE)
        campaign = load_campaign(str(path))
        factory = campaign._factory
        ref = factory_ref(factory)
        assert ref is not None           # synthetic module: needs the path
        module_name, ref_path, qualname = ref
        assert ref_path == str(path) and qualname == "factory"
        sys.modules.pop(module_name, None)      # a spawn child's view
        resolved = resolve_factory(None, ref)
        assert resolved is not factory and callable(resolved)
        assert resolved(rate=1e6).compile().name == "cli-sweep"

    def test_factory_ref_not_needed_for_importable_modules(self):
        from repro.campaign.executor import factory_ref
        assert factory_ref(pair) is None  # picklable by reference

    def test_unpicklable_factory_falls_back_to_serial(self):
        events = []

        def local_factory(*, rate, seed=0):       # closure: not picklable
            return pair(rate=rate, seed=seed)

        result = (Campaign("local").scenario(local_factory)
                  .grid(rate=[1e6, 2e6]).backends("kollaps")
                  .run(jobs=4, progress=events.append))
        assert not result.failed()
        assert any(event.kind == "fallback" for event in events)


# --------------------------------------------------------------------------
# Store: resume, interruption, corruption, supersession.
# --------------------------------------------------------------------------
class TestStoreResume:
    def test_resume_skips_everything_completed(self, tmp_path):
        store = str(tmp_path)
        first = sweep().run(jobs=1, store=store)
        assert first.skipped == 0
        again = sweep().run(jobs=1, store=store)
        assert again.skipped == 24
        assert (first.aggregate().to_csv() == again.aggregate().to_csv())

    def test_interrupted_campaign_resumes_exactly(self, tmp_path):
        store_root = str(tmp_path)
        _INTERRUPT["after"] = 7
        try:
            with pytest.raises(KeyboardInterrupt):
                (Campaign("sweep").scenario(interruptible).grid(rate=RATES)
                 .seeds(3).backends("kollaps", "baremetal")
                 .run(jobs=1, store=store_root))
        finally:
            _INTERRUPT["after"] = None
        store = ResultStore(os.path.join(store_root, "sweep"))
        completed = len(store.load())
        assert 0 < completed < 24
        resumed = (Campaign("sweep").scenario(interruptible).grid(rate=RATES)
                   .seeds(3).backends("kollaps", "baremetal")
                   .run(jobs=1, store=store_root))
        assert resumed.skipped == completed
        assert len(resumed) == 24 and not resumed.failed()
        # Byte-identical with a sweep that never saw an interruption.
        clean = sweep().run(jobs=1)
        assert resumed.aggregate().to_csv() == clean.aggregate().to_csv()

    def test_half_written_trailing_line_is_ignored(self, tmp_path):
        store_root = str(tmp_path)
        result = sweep().run(jobs=1, store=store_root)
        path = os.path.join(store_root, "sweep", "results.jsonl")
        with open(path, encoding="utf-8") as handle:
            lines = handle.readlines()
        with open(path, "w", encoding="utf-8") as handle:
            handle.writelines(lines[:-1])
            handle.write(lines[-1][:len(lines[-1]) // 2])   # the kill victim
        resumed = sweep().run(jobs=1, store=store_root)
        assert resumed.skipped == 23
        assert resumed.aggregate().to_csv() == result.aggregate().to_csv()

    def test_fresh_run_supersedes_last_wins(self, tmp_path):
        store = ResultStore(str(tmp_path / "c"))
        store.append({"hash": "h1", "status": "error", "error": "old"})
        store.append({"hash": "h1", "status": "ok", "run": None})
        assert store.load()["h1"]["status"] == "ok"

    def test_error_points_are_retried_on_resume(self, tmp_path):
        store = ResultStore(str(tmp_path / "c"))
        store.append({"hash": "h1", "status": "error", "error": "boom"})
        store.append({"hash": "h2", "status": "incompatible", "error": "na"})
        store.append({"hash": "h3", "status": "ok", "run": None})
        assert set(store.completed()) == {"h2", "h3"}

    def test_non_json_axis_values_store_and_resume(self, tmp_path):
        """Any grid value the digest accepted must also store: the JSONL
        writer falls back to repr exactly like the hash's canonical JSON,
        and resume keys on the precomputed hash."""
        store = str(tmp_path)
        campaign = (Campaign("odd").scenario(kwargs_swallower)
                    .grid(rate=[1e6], tag=[frozenset({1})])
                    .backends("kollaps"))
        first = campaign.run(jobs=1, store=store)
        assert not first.failed()
        again = (Campaign("odd").scenario(kwargs_swallower)
                 .grid(rate=[1e6], tag=[frozenset({1})])
                 .backends("kollaps").run(jobs=1, store=store))
        assert again.skipped == 1

    def test_status_counts_and_orphans(self, tmp_path):
        store_root = str(tmp_path)
        campaign = sweep()
        campaign.run(jobs=1, store=store_root)
        store = ResultStore(os.path.join(store_root, "sweep"))
        counts = store.status_counts(campaign.points())
        assert counts["ok"] == 24 and counts["missing"] == 0
        shrunk = (Campaign("sweep").scenario(pair).grid(rate=RATES[:2])
                  .seeds(3).backends("kollaps", "baremetal"))
        assert len(store.orphans(shrunk.points())) == 12
        assert store.manifest()["name"] == "sweep"


# --------------------------------------------------------------------------
# Aggregation.
# --------------------------------------------------------------------------
class TestAggregate:
    def test_rows_group_and_summary(self):
        aggregate = sweep().run(jobs=1).aggregate()
        rows = aggregate.rows()
        assert len(rows) == 24
        groups = aggregate.group("backend", "rate")
        assert len(groups) == 8          # 2 backends x 4 rates
        assert all(len(bucket) == 3 for bucket in groups.values())
        summary = aggregate.summary(by=("backend", "rate"))
        assert len(summary) == 8
        cell = summary[0]
        assert {"mean", "min", "max", "count"} <= set(cell)
        assert cell["count"] == 3

    def test_group_unknown_column_lists_available(self):
        aggregate = sweep().run(jobs=1).aggregate()
        with pytest.raises(KeyError, match="available"):
            aggregate.group("nope")

    def test_compare_against_baseline(self):
        aggregate = sweep().run(jobs=1).aggregate()
        deltas = aggregate.compare("baremetal")
        assert len(deltas) == 12         # 4 rates x 3 seeds, kollaps only
        assert all(row["backend"] == "kollaps" for row in deltas)
        assert all("deviation" in row for row in deltas)

    def test_compare_spans_live_and_reconstructed_runs(self, tmp_path):
        """A resumed sweep mixes store-reconstructed runs (stringified
        workload keys) with live ones (original tuple keys); compare()
        must still match every workload across the two forms."""
        store = str(tmp_path)
        (Campaign("mixed").scenario(tuple_keyed).grid(rate=[1e6])
         .backends("baremetal").run(jobs=1, store=store))
        result = (Campaign("mixed").scenario(tuple_keyed).grid(rate=[1e6])
                  .backends("kollaps", "baremetal").run(jobs=1, store=store))
        assert result.skipped == 1       # baremetal came back from the store
        (delta,) = result.aggregate().compare("baremetal")
        assert delta["backend"] == "kollaps"
        assert delta["workload"] == str(("a", "b"))

    def test_failures_table(self):
        aggregate = (Campaign("flaky").scenario(flaky).grid(rate=[0, 1e6])
                     .backends("kollaps").run(jobs=1).aggregate())
        (failure,) = aggregate.failures()
        assert failure["status"] == "error"
        assert "broken" in failure["error"]


# --------------------------------------------------------------------------
# Results round-trips (satellite coverage).
# --------------------------------------------------------------------------
class TestResultsRoundTrips:
    def test_scenario_run_dict_round_trip_is_identity(self):
        run = probing_run()
        payload = json.loads(json.dumps(run.to_dict()))
        clone = ScenarioRun.from_dict(payload)
        assert clone.to_dict() == run.to_dict()
        assert clone.seed == run.seed == 7
        assert clone.machines == run.machines
        assert clone.metric("p").summary == dict(run.metric("p").summary)

    def test_tuple_workload_keys_survive_the_round_trip(self):
        run = tuple_keyed(rate=1e6).compile().run()
        clone = ScenarioRun.from_dict(run.to_dict())
        key = ("a", "b")
        assert key in clone and key in run
        assert clone.metric(key).value == run.metric(key).value
        assert clone[key].value == run.metric(key).value
        with pytest.raises(KeyError, match=r"\('a', 'b'\)"):
            clone.metric(("a", "c"))

    def test_run_comparison_to_dict_round_trips(self):
        run = probing_run()
        comparison = run.compare(run)
        payload = json.loads(json.dumps(comparison.to_dict()))
        assert payload["baseline"] == payload["other"] == "kollaps"
        for key, record in payload["workloads"].items():
            delta = comparison[key]
            assert record["baseline"] == delta.baseline
            assert record["other"] == delta.other
            assert record["delta"] == delta.delta
            assert record["relative"] == delta.relative

    def test_to_csv_round_trips_summaries_and_series(self):
        run = probing_run()
        summaries: dict = {}
        series: dict = {}
        lines = run.to_csv().splitlines()
        assert lines[0] == "workload,series,time,value"
        for line in lines[1:]:
            workload, column, time, value = line.split(",")
            if column.startswith("summary."):
                summaries.setdefault(workload, {})[
                    column[len("summary."):]] = float(value)
            else:
                series.setdefault((workload, column), []).append(
                    (float(time), float(value)))
        for key in ("p", "f"):
            metrics = run.metric(key)
            for stat, value in metrics.summary.items():
                assert summaries[key][stat] == value     # repr round-trip
            assert summaries[key]["drops"] == metrics.drops
            if metrics.latency:
                assert series[(key, "latency")] == list(metrics.latency)
            if metrics.throughput:
                assert series[(key, "throughput")] == \
                    list(metrics.throughput)

    def test_series_summary_empty_names_the_workload(self):
        with pytest.raises(ValueError, match="workload 'wrk2'"):
            series_summary((), workload="wrk2")
        with pytest.raises(ValueError, match="unnamed"):
            series_summary(())

    def test_series_summary_stats(self):
        summary = series_summary(((0.0, 1.0), (1.0, 3.0)), workload="w")
        assert summary == {"mean": 2.0, "min": 1.0, "max": 3.0,
                           "samples": 2.0}


# --------------------------------------------------------------------------
# Experiments expose campaigns.
# --------------------------------------------------------------------------
class TestExperimentCampaigns:
    def test_fig5_campaign_grid(self):
        from repro.experiments import as_campaign
        campaign = as_campaign("fig5")
        points = campaign.points()
        assert len(points) == 9          # 3 workloads x 3 systems
        assert all(point.seed == 61 for point in points)

    def test_fig6_campaign_grid(self):
        from repro.experiments import as_campaign
        campaign = as_campaign("fig6")
        points = campaign.points()
        assert len(points) == 12         # 4 client counts x 3 systems
        assert all(point.seed == 71 for point in points)

    def test_fig6_aggregate_matches_golden(self):
        from pathlib import Path

        from repro.experiments.fig6 import campaign
        sweep = campaign(duration=6.0).run(jobs=1)
        golden = Path(__file__).parent / "golden" / "fig6_aggregate.md"
        assert sweep.aggregate().to_markdown() == golden.read_text()

    def test_table2_campaign_has_labelled_trickle_variants(self):
        from repro.experiments import as_campaign
        labels = {point.label for point in as_campaign("table2").points()}
        assert {"kollaps", "mininet", "trickle_default",
                "trickle_tuned"} == labels

    def test_table2_reports_the_same_from_a_pool(self):
        """Pool runs come back metrics-only (``engine=None``); Table 2's
        error cells, Mininet's efficiency correction included, must not
        depend on a live engine."""
        from repro.experiments import table2
        rates = [128e3, 2e9]            # one shapeable, one Mininet N/A

        def cells(sweep):
            return [table2.shaping_error(sweep, rate, system)
                    for rate in rates for system in table2.SYSTEMS]

        grid = table2.campaign(duration=6.0).grid(rate=rates)
        serial, pooled = grid.run(jobs=1), grid.run(jobs=2)
        assert all(result.run.engine is None for result in pooled.ok())
        assert any(result.run.engine is not None for result in serial.ok())
        assert cells(pooled) == cells(serial)
        assert cells(serial)[1] is not None and cells(serial)[5] is None

    def test_table4_campaign_excludes_maxinet_beyond_paper(self):
        from repro.experiments import as_campaign
        points = as_campaign("table4").points()
        assert len(points) == 8          # 3 sizes x 3 systems - 1 excluded
        assert [point.params_dict()["size"] for point in points
                if point.label == "maxinet"] == [1000, 2000]   # not 4000

    def test_unknown_campaign_lists_available(self):
        from repro.experiments import as_campaign
        with pytest.raises(KeyError, match="fig5"):
            as_campaign("fig99")


# --------------------------------------------------------------------------
# The dashboard progress feed.
# --------------------------------------------------------------------------
class TestCampaignMonitor:
    def test_counts_render_and_stream(self):
        point = sweep().points()[0]
        stream = io.StringIO()
        monitor = CampaignMonitor(total=3, stream=stream)
        monitor(CampaignEvent(kind="start", point=point))
        monitor(CampaignEvent(kind="ok", point=point, elapsed=0.5))
        monitor(CampaignEvent(kind="skip", point=point))
        monitor(CampaignEvent(kind="error", point=point,
                              error="RuntimeError: boom\ntrace"))
        assert monitor.done == 3
        feed = stream.getvalue()
        assert "[1/3] ok" in feed
        assert "RuntimeError: boom" in feed and "trace" not in feed
        pane = monitor.render()
        assert "3/3" in pane
        assert "1 ok, 1 skip" in pane

    def test_monitor_drives_from_real_campaign(self):
        monitor = CampaignMonitor(total=2)
        (Campaign("mon").scenario(pair).grid(rate=[1e6, 2e6])
         .backends("kollaps").run(jobs=1, progress=monitor))
        assert monitor.done == 2
        assert monitor.counts.get("ok") == 2


# --------------------------------------------------------------------------
# Loading campaign sources (the CLI's entry path).
# --------------------------------------------------------------------------
CAMPAIGN_MODULE = """\
from repro.campaign import Campaign
from repro.scenario import Scenario, flow


def factory(*, rate, seed=0):
    return (Scenario.build("cli-sweep")
            .service("a").service("b")
            .link("a", "b", latency="1ms", up=rate)
            .workload(flow("a", "b", key="f"))
            .deploy(seed=seed, duration=2.0))


CAMPAIGN = (Campaign("cli-sweep")
            .scenario(factory)
            .grid(rate=[1e6, 2e6])
            .seeds(2)
            .backends("kollaps"))
"""


@pytest.fixture
def campaign_file(tmp_path):
    path = tmp_path / "mini_campaign.py"
    path.write_text(CAMPAIGN_MODULE)
    return str(path)


class TestLoadCampaign:
    def test_loads_python_module(self, campaign_file):
        campaign = load_campaign(campaign_file)
        assert campaign.name == "cli-sweep"
        assert len(campaign.points()) == 4

    def test_module_without_campaign_rejected(self, tmp_path):
        path = tmp_path / "empty.py"
        path.write_text("x = 1\n")
        with pytest.raises(CampaignError, match="CAMPAIGN"):
            load_campaign(str(path))

    def test_loaded_factory_survives_worker_processes(self, campaign_file,
                                                      tmp_path):
        result = load_campaign(campaign_file).run(
            jobs=2, store=str(tmp_path / "campaigns"))
        assert len(result) == 4 and not result.failed()


class TestCampaignCli:
    def test_run_status_report(self, campaign_file, tmp_path, capsys):
        from repro.cli import main
        store = str(tmp_path / "campaigns")
        assert main(["campaign", "run", campaign_file, "--store", store,
                     "--jobs", "2", "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "4 points" in out and "4 ok" in out
        assert os.path.exists(os.path.join(store, "cli-sweep",
                                           "results.jsonl"))

        assert main(["campaign", "status", campaign_file,
                     "--store", store]) == 0
        out = capsys.readouterr().out
        assert "ok: 4/4" in out and "missing: 0/4" in out

        assert main(["campaign", "report", campaign_file,
                     "--store", store]) == 0
        out = capsys.readouterr().out
        assert "## Summary" in out and "throughput_mean" in out

        assert main(["campaign", "report", campaign_file, "--store", store,
                     "--format", "csv"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "rate,seed,backend,workload,metric,value"

    def test_resume_skips_and_fresh_reruns(self, campaign_file, tmp_path,
                                           capsys):
        from repro.cli import main
        store = str(tmp_path / "campaigns")
        assert main(["campaign", "run", campaign_file, "--store", store,
                     "--quiet"]) == 0
        capsys.readouterr()
        assert main(["campaign", "run", campaign_file, "--store", store,
                     "--quiet"]) == 0
        assert "4 resumed from store" in capsys.readouterr().out
        assert main(["campaign", "run", campaign_file, "--store", store,
                     "--fresh", "--quiet"]) == 0
        assert "resumed from store" not in capsys.readouterr().out

    def test_csv_report_with_baseline_is_one_table(self, tmp_path, capsys):
        from repro.cli import main
        path = tmp_path / "two_backends.py"
        path.write_text(CAMPAIGN_MODULE.replace(
            '.backends("kollaps")', '.backends("kollaps", "baremetal")'))
        store = str(tmp_path / "campaigns")
        assert main(["campaign", "run", str(path), "--store", store,
                     "--quiet"]) == 0
        capsys.readouterr()
        assert main(["campaign", "report", str(path), "--store", store,
                     "--format", "csv", "--baseline", "baremetal"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        header = lines[0].split(",")
        assert "deviation" in header and "baseline" in header
        # One table: every following line is a data row of that header.
        assert all(len(line.split(",")) == len(header)
                   for line in lines[1:])

    def test_report_unknown_baseline_fails_cleanly(self, campaign_file,
                                                   tmp_path, capsys):
        from repro.cli import main
        store = str(tmp_path / "campaigns")
        assert main(["campaign", "run", campaign_file, "--store", store,
                     "--quiet"]) == 0
        capsys.readouterr()
        assert main(["campaign", "report", campaign_file, "--store", store,
                     "--baseline", "ns3"]) == 1
        err = capsys.readouterr().err
        assert "ns3" in err and "kollaps" in err

    def test_report_without_results_fails_cleanly(self, campaign_file,
                                                  tmp_path, capsys):
        from repro.cli import main
        assert main(["campaign", "report", campaign_file,
                     "--store", str(tmp_path / "nowhere")]) == 1
        assert "no stored results" in capsys.readouterr().err

    def test_unknown_source_fails_cleanly(self, capsys):
        from repro.cli import main
        assert main(["campaign", "status", "fig99"]) == 1
        err = capsys.readouterr().err
        assert "fig99" in err and "fig5" in err
