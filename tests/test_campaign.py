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
import random
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.campaign import (
    Campaign,
    CampaignError,
    CampaignEvent,
    Point,
    ResultStore,
    load_campaign,
)
from repro.campaign.store import encode_record, read_records
from repro.dashboard import CampaignMonitor
from repro.scenario import Scenario, ScenarioRun, dumps_scn, flow, \
    loads_scn, ping, set_link
from repro.scenario.results import Series, series_summary
from repro.scenario.topologies import scale_free

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


def crasher(*, rate, seed=0):
    """Kills its worker process at one grid point, as a segfault would."""
    if rate == RATES[1] and seed == 1:
        os._exit(3)
    return pair(rate=rate, seed=seed)


def crashes(point) -> bool:
    return point.params_dict()["rate"] == RATES[1] and point.seed == 1


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


def rising(*, seed=0):
    """Pings across a scale-free topology whose backbone latencies rise
    mid-run: each later routing may take over the trees of the one
    before it (``collapse._previous``)."""
    bare = scale_free(40, seed=1).compile().topology
    backbone = sorted((link for link in bare.links()
                       if link.source.startswith("sw")
                       and link.destination.startswith("sw")),
                      key=lambda link: link.link_id)[:3]
    builder = scale_free(40, seed=1)
    for index, link in enumerate(backbone):
        builder.at(0.3 * (index + 1),
                   set_link(link.source, link.destination,
                            latency=link.properties.latency * 2.0))
    containers = bare.container_names()
    for a, b in zip(containers[:4], containers[-4:]):
        builder.workload(ping(a, b, count=25, interval=0.05,
                              key=f"{a}->{b}"))
    return builder.deploy(machines=2, seed=seed, duration=1.5,
                          enforce_bandwidth_sharing=False)


def lossy(*, seed=0):
    """Pings and a flow over lossy, jittery links: every netem, link and
    fluid-loss stream is made on its first draw."""
    return (Scenario.build("lossy")
            .service("a").service("b").bridge("s")
            .link("a", "s", latency="2ms", jitter="1ms", loss="5%",
                  up="10Mbps")
            .link("s", "b", latency="2ms", jitter="1ms", loss="2%",
                  up="10Mbps")
            .workload(ping("a", "b", count=30, interval=0.02),
                      flow("a", "b", key="bulk"))
            .deploy(machines=2, seed=seed, duration=1.0))


def from_scn(*, seed=0):
    """A point loaded from its ``.scn`` document: validation reads the
    schema's cached ``_deploy_checks``."""
    return loads_scn(dumps_scn(lossy(seed=seed)))


def stored(digest, status, **fields):
    """A store record with every key ``PointResult.to_record`` writes."""
    return {"hash": digest, "point": {}, "status": status, "error": "",
            "elapsed": 0.0, "run": None, **fields}


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

    def test_campaigns_in_one_pool_store_and_report_as_alone(
            self, tmp_path):
        from repro.campaign import run_campaigns
        store = str(tmp_path / "campaigns")
        pings = (Campaign("pings").scenario(pinger).grid(rate=RATES[:2])
                 .backends("kollaps").until(1.0))
        together = run_campaigns([sweep(), pings], jobs=2, store=store)
        assert [result.campaign for result in together] == ["sweep", "pings"]
        for result, alone in zip(together, (sweep().run(),
                                            pings.run())):
            assert (result.aggregate().to_markdown()
                    == alone.aggregate().to_markdown())
        assert all(result.run.until == 1.0 for result in together[1])
        assert [len(ResultStore(os.path.join(store, name)).load())
                for name in ("sweep", "pings")] == [24, 2]
        resumed = run_campaigns([sweep(), pings], jobs=2, store=store)
        assert [result.skipped for result in resumed] == [24, 2]
        with pytest.raises(CampaignError, match="distinct"):
            run_campaigns([pings, pings])

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
        (cell,) = [cell for cell in result
                   if cell.status == "incompatible"]
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


class TestWorkerIndependence:
    """A point's record does not depend on what its process ran before:
    the property one pool shared by every experiment rests on.  The
    points reach each process-wide cache — ``apps/kvstore._KEY_NAMES``
    (memtier), ``table4.probe_plan``'s ``lru_cache``, the collapse
    memo, whose last routing lends its trees across a latency rise, and
    the ``.scn`` schema's ``_deploy_checks`` — and the random streams a
    run makes on their first draw."""

    def test_records_do_not_depend_on_run_order(self):
        from repro import telemetry
        from repro.apps import kvstore
        from repro.campaign import run_point
        from repro.core import clear_collapse_cache
        from repro.experiments import ablation_sharing, fig4, table4
        from repro.scenario.dsl import schema
        campaigns = [
            fig4.campaign(duration=0.5, hosts=[1, 2], connections=[1]),
            table4.campaign(pings=3, pair_count=4).grid(size=[120]),
            ablation_sharing.campaign(duration=2.0),
            Campaign("rising").scenario(rising).seeds(2),
            Campaign("lossy").scenario(lossy).seeds(2)
            .backends("kollaps", "baremetal"),
            Campaign("scn").scenario(from_scn).seeds(2)]
        in_grid_order = [(campaign._factory, point) for campaign in campaigns
                         for point in campaign.points()]
        shuffled = list(in_grid_order)
        random.Random(5).shuffle(shuffled)

        def records(tasks):
            by_hash = {}
            for factory, point in tasks:
                record = run_point(factory, point).to_record()
                assert record["status"] == "ok", record["error"]
                del record["elapsed"]
                by_hash[record["hash"]] = record
            return by_hash

        clear_collapse_cache()
        telemetry.metrics.clear()
        telemetry.enable()
        try:
            first = records(in_grid_order)
            inherited = telemetry.metrics.counter(
                "collapse.trees_inherited").value
            plans_reused = table4.probe_plan.cache_info().hits
            assert records(shuffled) == first
        finally:
            telemetry.disable()
            telemetry.metrics.clear()
        assert len(first) == 15
        assert inherited > 0
        assert kvstore._KEY_NAMES
        assert table4.probe_plan.cache_info().hits > plans_reused
        assert schema._deploy_checks.cache_info().hits > 0
        lossy_runs = [record["run"] for record in first.values()
                      if record["point"]["campaign"] in ("lossy", "scn")]
        assert len(lossy_runs) == 6


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

    def test_each_executed_point_traces_one_store_span(self, tmp_path):
        """``repro trace summary`` attributes the store's time: one
        ``campaign.store`` span per point appended, none for a point
        resumed from the store."""
        from repro import telemetry
        store = str(tmp_path)
        (Campaign("sweep").scenario(pair).grid(rate=RATES[:2]).seeds(3)
         .backends("kollaps", "baremetal").run(jobs=1, store=store))
        telemetry.enable()
        try:
            result = sweep().run(jobs=1, store=store)
            spans = telemetry.tracer().spans
        finally:
            telemetry.disable()
            telemetry.metrics.clear()
        assert result.skipped == 12
        stored = [span["attrs"]["hash"] for span in spans
                  if span["name"] == "campaign.store"]
        executed = [item.point.digest() for item in result.results
                    if item.source != "store"]
        assert len(executed) == 12 and stored == executed

    def test_a_store_of_pair_form_series_resumes_the_same(self, tmp_path):
        """Records written before series were packed hold each series as
        ``[time, value]`` pairs: every point resumes from them, and the
        sweep aggregates as it did."""
        store_root = str(tmp_path)
        first = sweep().run(jobs=1, store=store_root)
        path = os.path.join(store_root, "sweep", "results.jsonl")
        records = list(read_records(path).values())
        with open(path, "w", encoding="utf-8") as handle:
            for record in records:
                for metrics in record["run"]["workloads"].values():
                    for name in ("throughput", "latency"):
                        metrics[name] = [
                            list(pair)
                            for pair in Series.unpacked(metrics[name])]
                handle.write(encode_record(record))
        assert '"throughput": [[' in Path(path).read_text(encoding="utf-8")
        again = sweep().run(jobs=1, store=store_root)
        assert again.skipped == len(again) == 24 and not again.failed()
        assert again.aggregate().to_csv() == first.aggregate().to_csv()
        assert again.aggregate().to_markdown() == \
            first.aggregate().to_markdown()
        for was, now in zip(first.results, again.results):
            assert now.source == "store"
            assert now.run.metric("bulk").throughput == \
                was.run.metric("bulk").throughput

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
        # The rerun record starts a line of its own after the torn one, so
        # the store alone rebuilds the serial aggregate.
        stored = sweep().load(store_root).aggregate()
        serial = sweep().run(jobs=1).aggregate()
        assert stored.to_csv() == serial.to_csv()
        assert stored.to_markdown() == serial.to_markdown()
        assert sweep().run(jobs=1, store=store_root).skipped == 24

    def test_fresh_run_supersedes_last_wins(self, tmp_path):
        store = ResultStore(str(tmp_path / "c"))
        store.append(stored("h1", "error", error="old"))
        store.append(stored("h1", "ok"))
        assert store.load()["h1"]["status"] == "ok"

    def test_error_points_are_retried_on_resume(self, tmp_path):
        store = ResultStore(str(tmp_path / "c"))
        store.append(stored("h1", "error", error="boom"))
        store.append(stored("h2", "incompatible", error="na"))
        store.append(stored("h3", "ok"))
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
        manifest = json.loads(Path(store.manifest_path).read_text())
        assert manifest["name"] == "sweep"


class TestCompaction:
    def test_compact_drops_superseded_and_reports(self, tmp_path):
        store = ResultStore(str(tmp_path / "c"))
        store.append(stored("a", "error", elapsed=1.0))
        store.append(stored("a", "ok", elapsed=2.0))
        store.append(stored("b", "ok"))
        report = store.compact()
        assert set(report) == {"records_kept", "records_dropped",
                               "bytes_reclaimed"}
        assert report["records_kept"] == 2
        assert report["records_dropped"] == 1
        assert report["bytes_reclaimed"] > 0
        assert store.load()["a"]["elapsed"] == 2.0

    def test_compact_is_idempotent_and_preserves_aggregate(self, tmp_path):
        store_root = str(tmp_path)
        campaign = sweep()
        campaign.run(jobs=1, store=store_root)
        campaign.run(jobs=1, store=store_root, resume=False)   # supersede
        store = ResultStore(os.path.join(store_root, campaign.name))
        before = sweep().load(store_root).aggregate().to_markdown()
        report = store.compact()
        assert report["records_dropped"] == 24         # one stale run
        after = sweep().load(store_root).aggregate().to_markdown()
        assert before == after == sweep().run(jobs=1).aggregate().to_markdown()
        again = store.compact()
        assert again["records_dropped"] == 0
        assert again["bytes_reclaimed"] == 0


# --------------------------------------------------------------------------
# Faults the pool and the store must survive: the torn tail above, a point
# that kills its worker process, and a SIGKILL of the whole run.
# --------------------------------------------------------------------------
class TestFaultMatrix:
    def test_a_point_that_kills_its_worker_fails_alone(self):
        crashing = (Campaign("crash").scenario(crasher).grid(rate=RATES)
                    .seeds(3).backends("kollaps"))
        result = crashing.run(jobs=2)
        assert result.describe() == "campaign 'crash': 12 points, " \
                                    "1 error, 11 ok"
        (failure,) = result.failed()
        assert crashes(failure.point)
        assert "worker process died" in failure.error
        serial = crashing.exclude(crashes).run(jobs=1)
        assert len(serial) == 11
        assert result.aggregate().to_csv() == serial.aggregate().to_csv()

    def test_a_killed_run_resumes_to_the_serial_aggregate(self, tmp_path,
                                                          capsys):
        from repro.cli import main
        source = tmp_path / "slow_campaign.py"
        source.write_text(SLOW_CAMPAIGN_MODULE)
        store = tmp_path / "campaigns"
        environment = dict(os.environ,
                           PYTHONPATH=str(Path(__file__).parent.parent
                                          / "src"))
        run = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "campaign", "run",
             str(source), "--store", str(store), "--jobs", "2", "--quiet"],
            env=environment, start_new_session=True,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        results = store / "slow-sweep" / "results.jsonl"
        try:
            deadline = time.monotonic() + 120
            while not (results.exists() and results.stat().st_size):
                assert run.poll() is None and time.monotonic() < deadline
                time.sleep(0.01)
        finally:
            if run.poll() is None:
                os.killpg(run.pid, signal.SIGKILL)    # the CLI and its pool
            run.wait(timeout=60)
        stored = len(ResultStore(str(results.parent)).completed())
        assert 0 < stored < 8
        assert main(["campaign", "run", str(source), "--store", str(store),
                     "--jobs", "2", "--quiet"]) == 0
        out = capsys.readouterr().out
        assert f"8 points, 8 ok, {stored} resumed from store" in out
        serial = load_campaign(str(source)).run(jobs=1).aggregate()
        assert out.endswith(serial.to_markdown() + "\n")
        stored_aggregate = load_campaign(str(source)).load(str(store))
        assert stored_aggregate.aggregate().to_csv() == serial.to_csv()


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


# Eight points that each take a tenth of a second, so a run can be killed
# between its first stored record and its last.
SLOW_CAMPAIGN_MODULE = """\
import time

from repro.campaign import Campaign
from repro.scenario import Scenario, flow


def factory(*, rate, seed=0):
    time.sleep(0.1)
    return (Scenario.build("slow-sweep")
            .service("a").service("b")
            .link("a", "b", latency="1ms", up=rate)
            .workload(flow("a", "b", key="f"))
            .deploy(seed=seed, duration=2.0))


CAMPAIGN = (Campaign("slow-sweep")
            .scenario(factory)
            .grid(rate=[1e6, 2e6])
            .seeds(4)
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

    @pytest.mark.parametrize("verb", ["run", "status", "report", "compact"])
    @pytest.mark.parametrize("source, text, error", [
        ("broken.py", "def factory(:\n", "SyntaxError"),
        ("needs_dep.py", "import repro_no_such_module\n",
         "ModuleNotFoundError"),
        ("empty.py", "x = 1\n", "CampaignError"),
        ("absent.py", None, "FileNotFoundError"),
        ("fig99", None, "CampaignError"),
    ], ids=["syntax-error", "import-error", "no-campaign", "missing-file",
            "unknown-id"])
    def test_a_source_that_cannot_load_is_a_diagnostic(
            self, verb, source, text, error, tmp_path, capsys):
        from repro.cli import main
        if source.endswith(".py"):
            source = str(tmp_path / source)
            if text is not None:
                Path(source).write_text(text)
        assert main(["campaign", verb, source,
                     "--store", str(tmp_path / "campaigns")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"{source}: error: document: {error}: ")
        assert "Traceback" not in err
        stem = Path(source).stem
        assert f"repro_campaign_{stem}" not in sys.modules

    def test_paper_is_every_experiment_in_its_own_store(self, tmp_path,
                                                         capsys):
        from repro.cli import main
        from repro.experiments import registered
        store = str(tmp_path / "campaigns")
        assert main(["campaign", "status", "paper", "--quick",
                     "--store", store]) == 0
        stores = [line.split(os.sep)[-1] for line
                  in capsys.readouterr().out.splitlines()
                  if line.startswith("store: ")]
        assert stores == registered()
        assert main(["campaign", "report", "paper", "--quick",
                     "--store", store]) == 1
        err = capsys.readouterr().err
        assert "campaign 'table2' has 36 point(s) missing" in err
        assert "repro campaign run paper --quick" in err
        assert main(["campaign", "run", str(tmp_path / "sweep.py"),
                     "--quick"]) == 1
        assert "quick scale" in capsys.readouterr().err
        # Both scales share one store directory: compact has no --quick.
        with pytest.raises(SystemExit):
            main(["campaign", "compact", "paper", "--quick"])

    def test_compact_cli(self, campaign_file, tmp_path, capsys):
        from repro.cli import main
        store = str(tmp_path / "campaigns")
        assert main(["campaign", "run", campaign_file, "--store", store,
                     "--quiet"]) == 0
        assert main(["campaign", "run", campaign_file, "--store", store,
                     "--fresh", "--quiet"]) == 0
        capsys.readouterr()
        assert main(["campaign", "compact", campaign_file,
                     "--store", store]) == 0
        out = capsys.readouterr().out
        assert "kept 4 record(s), dropped 4 superseded line(s), " \
               "reclaimed " in out
        assert "shard" not in out and "salvaged" not in out
        assert main(["campaign", "report", campaign_file,
                     "--store", store]) == 0   # still readable after GC

    def test_help_lists_exactly_the_pool_verbs(self, capsys):
        from repro.cli import main
        with pytest.raises(SystemExit) as exit:
            main(["campaign", "--help"])
        assert exit.value.code == 0
        assert "{run,status,report,compact}" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["campaign", "fleet", "sweep.py"],
        ["campaign", "serve", "sweep.py"],
        ["-v", "run", "sweep.py"],
    ], ids=["fleet", "serve", "verbose"])
    def test_retired_verbs_and_flags_are_usage_errors(self, argv, capsys):
        from repro.cli import main
        with pytest.raises(SystemExit) as exit:
            main(argv)
        assert exit.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: repro") and "Traceback" not in err
