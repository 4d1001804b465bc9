"""Unit tests for repro.telemetry: spans, metrics, export."""

import json
import pickle
import threading

import pytest

from repro import telemetry
from repro.telemetry import (
    DEFAULT_BUCKETS,
    MetricsRegistry,
    NULL_SPAN,
    Stopwatch,
    Tracer,
    format_summary,
    format_top,
    load_trace,
    summarize,
    to_chrome,
    top_spans,
)


@pytest.fixture(autouse=True)
def clean_telemetry(monkeypatch):
    """Every test starts disabled with a fresh global registry."""
    monkeypatch.delenv(telemetry.TRACE_ENV_VAR, raising=False)
    telemetry.disable()
    telemetry.metrics.clear()
    yield
    telemetry.disable()
    telemetry.metrics.clear()


class TestStopwatch:
    def test_measures_elapsed(self):
        with Stopwatch() as watch:
            pass
        assert watch.elapsed >= 0.0

    def test_restart_resets_origin(self):
        watch = Stopwatch()
        watch.stop()
        first = watch.elapsed
        watch.restart()
        watch.stop()
        assert watch.elapsed >= 0.0
        assert first >= 0.0


class TestSpans:
    def test_disabled_returns_shared_null_span(self):
        assert not telemetry.enabled()
        span = telemetry.span("collapse.all_pairs", services=3)
        assert span is NULL_SPAN
        with span as inner:
            inner.set(anything=1).finish()   # full Span surface, no-ops

    def test_enable_records_spans_in_memory(self):
        telemetry.enable()
        with telemetry.span("fluid.step", flows=2):
            pass
        spans = telemetry.tracer().spans
        assert len(spans) == 1
        record = spans[0]
        assert record["name"] == "fluid.step"
        assert record["attrs"] == {"flows": 2}
        assert record["dur"] >= 0.0
        assert record["parent"] is None

    def test_nesting_links_parents(self):
        telemetry.enable()
        with telemetry.span("campaign.point"):
            with telemetry.span("backend.advance"):
                with telemetry.span("fluid.step"):
                    pass
        spans = {s["name"]: s for s in telemetry.tracer().spans}
        assert spans["campaign.point"]["parent"] is None
        assert spans["backend.advance"]["parent"] == \
            spans["campaign.point"]["id"]
        assert spans["fluid.step"]["parent"] == spans["backend.advance"]["id"]

    def test_siblings_share_a_parent(self):
        telemetry.enable()
        with telemetry.span("campaign.point"):
            with telemetry.span("backend.prepare"):
                pass
            with telemetry.span("backend.advance"):
                pass
        spans = {s["name"]: s for s in telemetry.tracer().spans}
        root = spans["campaign.point"]["id"]
        assert spans["backend.prepare"]["parent"] == root
        assert spans["backend.advance"]["parent"] == root

    def test_exception_tags_error_attribute(self):
        telemetry.enable()
        with pytest.raises(ValueError):
            with telemetry.span("backend.collect"):
                raise ValueError("boom")
        (record,) = telemetry.tracer().spans
        assert record["attrs"]["error"] == "ValueError"

    def test_finish_is_idempotent(self):
        telemetry.enable()
        span = telemetry.span("engine.apply_state")
        span.finish()
        span.finish()
        assert len(telemetry.tracer().spans) == 1

    def test_leaked_inner_span_does_not_corrupt_parentage(self):
        telemetry.enable()
        outer = telemetry.span("campaign.point")
        telemetry.span("backend.advance")      # leaked: never finished
        outer.finish()                         # pops through the leak
        with telemetry.span("campaign.point2"):
            pass
        later = telemetry.tracer().spans[-1]
        assert later["parent"] is None

    def test_keep_bound_drops_excess(self):
        tracer = Tracer(keep=2)
        for index in range(5):
            tracer._finish(tracer.start(f"s{index}", {}))
        assert len(tracer.spans) == 2
        assert tracer.dropped == 3

    def test_threads_get_independent_stacks(self):
        telemetry.enable()
        done = threading.Event()

        def worker():
            with telemetry.span("worker.point"):
                pass
            done.set()

        with telemetry.span("campaign.point"):
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        assert done.is_set()
        spans = {s["name"]: s for s in telemetry.tracer().spans}
        # The thread's span must NOT be parented under the main thread's.
        assert spans["worker.point"]["parent"] is None


class TestTraceFiles:
    def test_directory_sink_writes_jsonl(self, tmp_path):
        tracer = telemetry.enable(str(tmp_path))
        with telemetry.span("collapse.all_pairs", pairs=6):
            pass
        telemetry.flush()
        path = tracer.path()
        assert path is not None and path.endswith(".jsonl")
        lines = [json.loads(line) for line in
                 open(path, encoding="utf-8") if line.strip()]
        assert lines[0]["name"] == "collapse.all_pairs"
        assert lines[0]["attrs"] == {"pairs": 6}

    def test_enable_exports_env_var_for_children(self, tmp_path):
        import os
        telemetry.enable(str(tmp_path))
        assert os.environ[telemetry.TRACE_ENV_VAR] == str(tmp_path)
        telemetry.disable()
        assert telemetry.TRACE_ENV_VAR not in os.environ

    def test_load_trace_roundtrip(self, tmp_path):
        telemetry.enable(str(tmp_path))
        with telemetry.span("campaign.point"):
            with telemetry.span("fluid.step"):
                pass
        telemetry.flush()
        telemetry.disable()
        spans = load_trace(str(tmp_path))
        assert {s["name"] for s in spans} == {"campaign.point", "fluid.step"}

    def test_load_trace_missing_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_trace(str(tmp_path / "nope"))

    def test_load_trace_bad_json_names_line(self, tmp_path):
        bad = tmp_path / "trace-1.jsonl"
        bad.write_text('{"name": "a", "dur": 1.0}\nnot json\n')
        with pytest.raises(ValueError, match=r"trace-1\.jsonl:2"):
            load_trace(str(tmp_path))

    def test_non_serialisable_attrs_fall_back_to_repr(self, tmp_path):
        telemetry.enable(str(tmp_path))
        with telemetry.span("engine.apply_state", obj=object()):
            pass
        telemetry.flush()
        spans = load_trace(str(tmp_path))
        assert "object object" in spans[0]["attrs"]["obj"]


    def test_flush_leaves_counters_for_the_summary(self, tmp_path):
        """The registry rides beside the spans, one file per process,
        merged on load; span files keep holding spans only."""
        telemetry.enable(str(tmp_path))
        with telemetry.span("fluid.step"):
            telemetry.metrics.counter("sharing.closed_form").inc(3)
        telemetry.flush()
        (tmp_path / "metrics-1.json").write_text(json.dumps(
            {"sharing.closed_form": {"type": "counter", "value": 4.0},
             "tc.netlink_writes": {"type": "counter", "value": 2.0}}))
        counters = telemetry.load_metrics(str(tmp_path))
        assert counters["sharing.closed_form"]["value"] == 7.0
        assert counters["tc.netlink_writes"]["value"] == 2.0
        spans = load_trace(str(tmp_path))
        assert [s["name"] for s in spans] == ["fluid.step"]
        text = format_summary(summarize(spans), metrics=counters)
        assert "counters:" in text
        assert "sharing.closed_form" in text and "tc.netlink_writes" in text
        assert "counters:" not in format_summary(summarize(spans))
        assert telemetry.load_metrics(telemetry.tracer().path()) == {}


class TestLoopCounters:
    """What the emulation loop does, and what it now skips, as counters
    (docs/observability.md) — and the same behaviour whether anybody is
    counting or not."""

    @staticmethod
    def run_bulk(until=6.0):
        from repro.scenario.topologies import dumbbell
        engine = dumbbell(3, shared_bandwidth=30e6).deploy(
            machines=3, seed=4).compile().engine()
        for index in range(3):
            engine.start_flow(index, f"client{index}", f"server{index}",
                              start_time=index)
        engine.sim.at(4.0, engine.stop_flow, 0)
        engine.run(until=until)
        return engine

    def test_counters_account_for_the_loop(self):
        telemetry.enable()

        def count(name):
            return telemetry.metrics.counter(name).value

        # From 3 s to 4 s the three flows sit at their shares: every
        # period still polls and publishes, and nothing else runs.
        engine = self.run_bulk(until=3.0)
        steady = ("manager.loop_iterations", "manager.iterations_skipped",
                  "sharing.closed_form", "sharing.solver_calls",
                  "tc.netlink_writes")
        before = {name: count(name) for name in steady}
        engine.run(until=4.0)
        moved = {name: count(name) - before[name] for name in steady}
        assert moved["manager.iterations_skipped"] >= \
            0.9 * moved["manager.loop_iterations"] > 0, moved
        assert moved["sharing.closed_form"] == 0, moved
        assert moved["sharing.solver_calls"] == 0, moved
        assert moved["tc.netlink_writes"] == 0, moved
        engine.run(until=6.0)

        loops = sum(manager.loops for manager in engine.managers.values())
        polls = sum(core.polls for core in engine.cores.values())
        calls = sum(tcal.netlink_calls for tcal in engine.tcals.values())
        assert count("manager.loop_iterations") == loops > 0
        assert count("tc.netlink_writes") == calls - polls > 0
        assert count("manager.chains_restored") >= 1      # flow 0 left
        # A period either repeats the fixed point or remembers its floor.
        assert count("manager.floor_memo_hits") + \
            count("manager.iterations_skipped") > loops // 2
        # Waterfilling ran for a handful of arrivals, departures and
        # ramp-ups; a fluid step whose inputs held solved nothing.
        assert count("sharing.closed_form") < count("fluid.steps")
        assert 0 < count("sharing.solver_calls") < loops // 4

    def test_fluid_step_span_counts_the_flows_it_integrated(self):
        """Flows 0, 1, 2 start a second apart and flow 0 stops at 4 s: the
        span reports who was integrated, not who is registered."""
        telemetry.enable()
        self.run_bulk()
        flows_at = {span["attrs"]["t"]: span["attrs"]["flows"]
                    for span in telemetry.tracer().spans
                    if span["name"] == "fluid.step"}
        assert [flows_at[time] for time in (0.5, 1.5, 3.0, 5.0)] == \
            [1, 2, 3, 2]

    def test_tracing_does_not_change_the_run(self):
        def observe(engine):
            return (engine.sim.events_dispatched,
                    [tcal.netlink_calls for tcal in engine.tcals.values()],
                    engine.total_metadata_wire_bytes(),
                    {key: engine.fluid.series(key)
                     for key in range(3)})

        untraced = observe(self.run_bulk())
        telemetry.enable()
        assert observe(self.run_bulk()) == untraced


class TestEnvAutoEnable:
    def test_memory_values(self, monkeypatch):
        for value in ("1", "true", "mem"):
            monkeypatch.setenv(telemetry.TRACE_ENV_VAR, value)
            telemetry.disable()
            monkeypatch.setenv(telemetry.TRACE_ENV_VAR, value)
            telemetry._env_autoenable()
            assert telemetry.enabled()
            assert telemetry.tracer().directory is None

    def test_directory_value(self, monkeypatch, tmp_path):
        monkeypatch.setenv(telemetry.TRACE_ENV_VAR, str(tmp_path))
        telemetry._env_autoenable()
        assert telemetry.enabled()
        assert telemetry.tracer().directory == str(tmp_path)

    def test_falsy_values_stay_off(self, monkeypatch):
        for value in ("", "0", "false", "off"):
            monkeypatch.setenv(telemetry.TRACE_ENV_VAR, value)
            telemetry._env_autoenable()
            assert not telemetry.enabled()


class TestMetrics:
    def test_counter_accumulates(self):
        registry = MetricsRegistry()
        registry.counter("sharing.solver_calls").inc()
        registry.counter("sharing.solver_calls").inc(2.5)
        snap = registry.snapshot()
        assert snap["sharing.solver_calls"] == {"type": "counter",
                                                "value": 3.5}

    def test_gauge_sets_and_incs(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("fleet.workers")
        gauge.set(3)
        gauge.inc(-1)
        assert registry.snapshot()["fleet.workers"]["value"] == 2.0

    def test_histogram_buckets_and_stats(self):
        registry = MetricsRegistry()
        hist = registry.histogram("point_seconds", buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 5.0):
            hist.observe(value)
        doc = registry.snapshot()["point_seconds"]
        assert doc["buckets"] == [0.1, 1.0]
        assert doc["counts"] == [1, 1, 1]      # +inf overflow bucket
        assert doc["count"] == 3
        assert doc["sum"] == pytest.approx(5.55)
        assert doc["min"] == 0.05 and doc["max"] == 5.0
        assert hist.mean == pytest.approx(5.55 / 3)

    def test_snapshot_is_name_sorted_and_picklable(self):
        registry = MetricsRegistry()
        registry.counter("zulu").inc()
        registry.counter("alpha").inc()
        registry.histogram("mid").observe(0.2)
        snap = registry.snapshot()
        assert list(snap) == sorted(snap)
        assert pickle.loads(pickle.dumps(snap)) == snap
        assert json.loads(json.dumps(snap)) == snap

    def test_type_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("thing")
        with pytest.raises(TypeError, match="already registered"):
            registry.gauge("thing")
        with pytest.raises(TypeError, match="already registered"):
            registry.histogram("thing")

    def test_merge_adds_counters_and_histograms(self):
        worker_a, worker_b = MetricsRegistry(), MetricsRegistry()
        for registry, n in ((worker_a, 2), (worker_b, 3)):
            registry.counter("worker.points").inc(n)
            registry.gauge("worker.queue").set(n)
            registry.histogram("worker.point_seconds").observe(float(n))
        fleet = MetricsRegistry()
        fleet.merge(worker_a.snapshot())
        fleet.merge(worker_b.snapshot())
        snap = fleet.snapshot()
        assert snap["worker.points"]["value"] == 5.0
        assert snap["worker.queue"]["value"] == 3.0      # last writer wins
        hist = snap["worker.point_seconds"]
        assert hist["count"] == 2
        assert hist["sum"] == 5.0
        assert hist["min"] == 2.0 and hist["max"] == 3.0

    def test_merge_then_snapshot_equals_sum(self):
        left = MetricsRegistry()
        left.counter("c").inc(1)
        merged = MetricsRegistry()
        merged.merge(left.snapshot())
        merged.merge(left.snapshot())
        assert merged.snapshot()["c"]["value"] == 2.0

    def test_delta_since_counters_only(self):
        registry = MetricsRegistry()
        registry.counter("sharing.solver_seconds").inc(1.0)
        registry.gauge("queue").set(9)
        before = registry.snapshot()
        registry.counter("sharing.solver_seconds").inc(0.5)
        registry.counter("collapse.recomputes").inc(2)
        delta = registry.delta_since(before)
        assert delta["sharing.solver_seconds"] == pytest.approx(0.5)
        assert delta["collapse.recomputes"] == 2.0
        assert "queue" not in delta

    def test_default_buckets_cover_engine_scales(self):
        assert DEFAULT_BUCKETS[0] <= 0.001        # one fluid step
        assert DEFAULT_BUCKETS[-1] >= 300.0       # a long campaign point

    def test_clear_empties_registry(self):
        registry = MetricsRegistry()
        registry.counter("x").inc()
        registry.clear()
        assert registry.snapshot() == {}


def _span(name, span_id, parent=None, start=0.0, dur=1.0,
          pid=1, tid=1, **attrs):
    record = {"name": name, "id": span_id, "parent": parent,
              "start": start, "dur": dur, "cpu": dur, "pid": pid, "tid": tid}
    if attrs:
        record["attrs"] = attrs
    return record


class TestExport:
    def test_to_chrome_complete_events(self):
        doc = to_chrome([_span("campaign.point", 1, dur=2.0, label="x")])
        (event,) = doc["traceEvents"]
        assert event["ph"] == "X"
        assert event["dur"] == pytest.approx(2e6)   # microseconds
        assert event["cat"] == "campaign"
        assert event["args"] == {"label": "x"}
        json.dumps(doc)                             # must serialise

    def test_summarize_self_time_excludes_children(self):
        spans = [
            _span("campaign.point", 1, dur=10.0),
            _span("backend.advance", 2, parent=1, dur=8.0),
            _span("fluid.step", 3, parent=2, dur=6.0),
        ]
        summary = summarize(spans)
        assert summary["spans"] == 3
        assert summary["root_seconds"] == pytest.approx(10.0)
        assert summary["self_seconds"] == pytest.approx(10.0)
        layers = summary["layers"]
        assert layers["fluid"]["self"] == pytest.approx(6.0)
        assert layers["backend"]["self"] == pytest.approx(2.0)
        assert layers["campaign"]["self"] == pytest.approx(2.0)
        assert sum(doc["share"] for doc in layers.values()) \
            == pytest.approx(1.0)

    def test_summarize_keys_children_per_pid_tid(self):
        # Same ids in two processes must not cross-attribute self time.
        spans = [
            _span("campaign.point", 1, dur=4.0, pid=1),
            _span("campaign.point", 1, dur=4.0, pid=2),
            _span("fluid.step", 2, parent=1, dur=3.0, pid=1),
        ]
        summary = summarize(spans)
        assert summary["layers"]["campaign"]["self"] == pytest.approx(5.0)

    def test_top_spans_ranked_by_duration(self):
        spans = [_span("a.x", 1, dur=1.0), _span("b.y", 2, dur=3.0),
                 _span("c.z", 3, dur=2.0)]
        assert [s["name"] for s in top_spans(spans, 2)] == ["b.y", "c.z"]

    def test_format_summary_and_top_render(self):
        spans = [_span("campaign.point", 1, dur=1.0, status="ok")]
        text = format_summary(summarize(spans))
        assert "layer shares" in text and "campaign.point" in text
        top = format_top(top_spans(spans))
        assert "campaign.point" in top and "status=ok" in top

    def test_summarize_empty_trace(self):
        summary = summarize([])
        assert summary["spans"] == 0
        assert summary["layers"] == {}
        format_summary(summary)                     # must not divide by zero

