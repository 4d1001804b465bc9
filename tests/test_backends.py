"""Pluggable execution backends: registry, lifecycle, capabilities,
determinism and the unified results API."""

import pytest

from repro.scenario import (
    BackendCompatibilityError,
    ExecutionBackend,
    KollapsBackend,
    Scenario,
    backend_names,
    custom,
    flow,
    iperf,
    ping,
    register_backend,
    resolve_backend,
    set_link,
)
from repro.scenario.results import Metrics, ScenarioRun
from repro.scenario.topologies import point_to_point, scale_free, star

MBPS = 1e6

ALL_BACKENDS = ("kollaps", "baremetal", "mininet", "maxinet", "trickle")


def bulk_scenario(seed: int = 7):
    """A point-to-point iperf scenario every backend can execute."""
    return (point_to_point(50 * MBPS, latency=0.001)
            .workload(iperf("client", "server", duration=4.0, warmup=1.0,
                            key="i"))
            .deploy(machines=2, seed=seed, duration=4.0)
            .compile())


def probing_scenario(seed: int = 7):
    """iperf + ping: needs both planes (everything but trickle)."""
    return (star(["server", "c1", "c2"], bandwidth=100 * MBPS,
                 latency=0.001)
            .workload(iperf("c1", "server", duration=4.0, warmup=1.0,
                            key="i"),
                      ping("c2", "server", count=10, interval=0.05))
            .deploy(machines=2, seed=seed, duration=4.0)
            .compile())


class TestRegistry:
    def test_all_paper_systems_registered(self):
        for name in ALL_BACKENDS:
            assert name in backend_names()

    def test_unknown_backend_lists_known_names(self):
        with pytest.raises(ValueError) as error:
            bulk_scenario().run(backend="ns3")
        message = str(error.value)
        assert "ns3" in message
        for name in ALL_BACKENDS:
            assert name in message

    def test_options_rejected_on_ready_instances(self):
        with pytest.raises(TypeError):
            resolve_backend(KollapsBackend(), workers=4)

    def test_non_backend_object_rejected(self):
        with pytest.raises(TypeError) as error:
            resolve_backend(object())
        assert "lifecycle" in str(error.value)

    def test_custom_backend_registers_and_runs(self):
        class TaggedKollaps(KollapsBackend):
            name = "kollaps-tagged"

        register_backend("kollaps-tagged", TaggedKollaps)
        try:
            run = bulk_scenario().run(backend="kollaps-tagged")
            assert run.backend == "kollaps-tagged"
        finally:
            from repro.scenario import backends as backends_module
            del backends_module._REGISTRY["kollaps-tagged"]

    def test_ready_instance_accepted_directly(self):
        run = bulk_scenario().run(backend=KollapsBackend())
        assert run.backend == "kollaps"


class TestLifecycle:
    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_every_backend_executes_the_same_compiled_scenario(
            self, backend):
        run = bulk_scenario().run(backend=backend)
        assert isinstance(run, ScenarioRun)
        assert run.backend == backend
        assert run.scenario == "point-to-point"
        assert run.until == pytest.approx(4.0)
        metrics = run.metric("i")
        assert isinstance(metrics, Metrics)
        assert metrics.primary == "throughput_mean"
        assert metrics.value > 0

    @pytest.mark.parametrize("backend",
                             ("kollaps", "baremetal", "mininet", "maxinet"))
    def test_emulating_backends_shape_to_the_provisioned_rate(self, backend):
        run = bulk_scenario().run(backend=backend)
        assert run["i"].mean_goodput == pytest.approx(50 * MBPS, rel=0.10)

    def test_trickle_overshoots_like_the_paper(self):
        from repro.baselines.trickle import TrickleShaper
        run = bulk_scenario().run(backend="trickle",
                                  physical_link_rate=40e9)
        expected = TrickleShaper(50 * MBPS, link_rate=40e9).achieved_rate()
        assert run["i"].mean_goodput == pytest.approx(expected)
        assert run["i"].relative_error(50 * MBPS) > 0.35

    def test_trickle_meters_demand_limited_flows_at_their_demand(self):
        from repro.baselines.trickle import TrickleShaper
        from repro.scenario import udp_blast
        compiled = (point_to_point(100 * MBPS)
                    .workload(udp_blast("client", "server", "1Mbps",
                                        key="u"))
                    .deploy(seed=1, duration=2.0).compile())
        run = compiled.run(backend="trickle", physical_link_rate=40e9)
        expected = TrickleShaper(1e6, link_rate=40e9).achieved_rate()
        assert run["u"] == pytest.approx(expected)
        assert run["u"] < 10 * MBPS    # nowhere near the 100 Mb/s path

    def test_kollaps_backend_matches_direct_engine_wiring(self):
        compiled = bulk_scenario()
        run = compiled.run(backend="kollaps")
        engine = compiled.engine()
        for workload in compiled.workloads:
            workload.install(engine)
        engine.run(until=4.0)
        assert run.engine.fluid.mean_throughput("i", 1.0, 4.0) == \
            pytest.approx(engine.fluid.mean_throughput("i", 1.0, 4.0))

    def test_custom_workload_flows_through_backend(self):
        state = {}

        def install(system):
            state["system"] = system
            return 41

        def collect(system, until, installed):
            return installed + 1

        compiled = (point_to_point(50 * MBPS)
                    .workload(custom("probe", install, collect=collect))
                    .deploy(seed=1, duration=1.0).compile())
        run = compiled.run(backend="baremetal")
        assert run["probe"] == 42
        assert state["system"] is run.engine


class TestCapabilities:
    def test_mininet_rejects_fast_links(self):
        compiled = (point_to_point(2e9)
                    .workload(flow("client", "server", key="f"))
                    .deploy(seed=1).compile())
        with pytest.raises(BackendCompatibilityError) as error:
            compiled.run(backend="mininet")
        assert "1 Gb/s" in str(error.value)

    def test_mininet_rejects_oversized_topologies(self):
        compiled = (star([f"n{i}" for i in range(8)])
                    .deploy(seed=1).compile())
        with pytest.raises(BackendCompatibilityError) as error:
            compiled.run(backend="mininet", element_budget=4)
        assert "budget" in str(error.value)

    def test_mininet_shapes_exactly_1gbps(self):
        """Table 2's 1 Gb/s row runs on Mininet: the cap is inclusive."""
        compiled = (point_to_point(1e9)
                    .workload(flow("client", "server", key="f"))
                    .deploy(seed=1).compile())
        assert compiled.validate_backend("mininet") == []

    def test_mininet_default_budget_refuses_2000_elements(self):
        """Table 4's N/A: 2000 elements exceed one machine by default."""
        compiled = scale_free(2000, seed=1).deploy(seed=1).compile()
        problems = compiled.validate_backend("mininet")
        assert len(problems) == 1 and "budget of 1700" in problems[0]

    def test_problems_aggregate_into_one_error(self):
        """Compile-against-backend reports every problem at once."""
        compiled = (point_to_point(50 * MBPS)
                    .workload(ping("client", "server"),
                              flow("client", "server", key="f"))
                    .at(2, set_link("client", "s0", latency="5ms"))
                    .deploy(seed=1).compile())
        with pytest.raises(BackendCompatibilityError) as error:
            compiled.run(backend="trickle")
        message = str(error.value)
        assert "dynamic event" in message          # no runtime changes
        assert "packet plane" in message           # no ping on trickle
        assert message.count(";") >= 1             # several problems listed

    def test_dynamic_events_only_run_on_kollaps(self):
        compiled = (point_to_point(50 * MBPS)
                    .workload(flow("client", "server", key="f"))
                    .at(2, set_link("client", "s0", latency="5ms"))
                    .deploy(seed=1, duration=3.0).compile())
        assert compiled.run(backend="kollaps").backend == "kollaps"
        with pytest.raises(BackendCompatibilityError):
            compiled.run(backend="baremetal")

    def test_validate_backend_reports_without_raising(self):
        compiled = (point_to_point(2e9)
                    .workload(ping("client", "server"))
                    .deploy(seed=1).compile())
        assert compiled.validate_backend("kollaps") == []
        problems = compiled.validate_backend("mininet")
        assert len(problems) == 4          # one per >1 Gb/s half-link
        assert all("Gb/s" in problem for problem in problems)

    def test_trickle_rejects_plane_less_custom_workloads(self):
        compiled = (point_to_point(50 * MBPS)
                    .workload(custom("x", lambda system: None, needs=()))
                    .deploy(seed=1).compile())
        with pytest.raises(BackendCompatibilityError) as error:
            compiled.run(backend="trickle")
        assert "flow-style bulk workloads" in str(error.value)

    def test_trickle_needs_a_provisioned_rate(self):
        compiled = (Scenario.build("open").service("a").service("b")
                    .link("a", "b", latency="1ms")
                    .workload(flow("a", "b", key="f"))
                    .deploy(seed=1).compile())
        with pytest.raises(BackendCompatibilityError) as error:
            compiled.run(backend="trickle")
        assert "provisioned rate" in str(error.value)

    def test_probe_planes_reports_exposed_surfaces(self):
        from repro.netstack.plane import probe_planes
        compiled = bulk_scenario()
        engine = compiled.engine()
        assert probe_planes(engine) == {"packet", "bulk"}
        assert probe_planes(object()) == frozenset()


class TestDeterminism:
    @pytest.mark.parametrize("backend",
                             ("kollaps", "baremetal", "mininet", "maxinet"))
    def test_same_seed_yields_identical_metrics(self, backend):
        """The same compiled scenario + seed reruns bit-identically."""
        compiled = probing_scenario(seed=13)
        first = compiled.run(backend=backend)
        second = compiled.run(backend=backend)
        assert first.metrics == second.metrics
        assert first.to_dict() == second.to_dict()

    def test_trickle_is_deterministic(self):
        compiled = bulk_scenario(seed=13)
        first = compiled.run(backend="trickle", physical_link_rate=40e9)
        second = compiled.run(backend="trickle", physical_link_rate=40e9)
        assert first.metrics == second.metrics

    def test_different_seeds_differ_on_a_jittered_link(self):
        def jittered(seed):
            return (point_to_point(50 * MBPS, latency=0.004, jitter=0.001)
                    .workload(ping("client", "server", count=10,
                                   interval=0.05))
                    .deploy(seed=seed, duration=2.0).compile())
        run_a = jittered(13).run(backend="baremetal")
        run_b = jittered(14).run(backend="baremetal")
        key = "ping:client->server"
        assert run_a.metric(key).latency != run_b.metric(key).latency


class TestResultsApi:
    def test_getitem_lists_available_keys_on_miss(self):
        run = bulk_scenario().run(backend="kollaps")
        with pytest.raises(KeyError) as error:
            run["nope"]
        message = str(error.value)
        assert "nope" in message
        assert "available workload keys" in message
        assert "i" in message

    def test_metric_lists_available_keys_on_miss(self):
        run = bulk_scenario().run(backend="kollaps")
        with pytest.raises(KeyError) as error:
            run.metric("nope")
        assert "available workload keys" in str(error.value)

    def test_compare_across_backends(self):
        compiled = bulk_scenario()
        baseline = compiled.run(backend="baremetal")
        other = compiled.run(backend="kollaps")
        comparison = baseline.compare(other)
        assert comparison.baseline_backend == "baremetal"
        assert comparison.other_backend == "kollaps"
        assert comparison.deviation("i") < 0.10
        delta = comparison["i"]
        assert delta.metric == "throughput_mean"
        assert delta.baseline == pytest.approx(
            baseline.metric("i").value)

    def test_compare_against_itself_is_zero(self):
        run = bulk_scenario().run(backend="kollaps")
        assert run.compare(run).deviation("i") == 0.0

    def test_compare_skips_workloads_without_a_headline_stat(self):
        """Non-numeric custom results must not fake a 0% deviation."""
        compiled = (point_to_point(50 * MBPS)
                    .workload(custom(
                        "pair", lambda system: None,
                        collect=lambda system, until, state: (1.0, 2.0)))
                    .deploy(seed=1, duration=1.0).compile())
        run = compiled.run(backend="baremetal")
        assert run["pair"] == (1.0, 2.0)
        assert run.metric("pair").summary == {}
        comparison = run.compare(run)
        with pytest.raises(KeyError):
            comparison["pair"]

    def test_custom_mapping_result_becomes_the_summary(self):
        """A mapping of numbers is stored as the summary, so a store or a
        pool hands the same statistics back."""
        def scenario(collected):
            return (point_to_point(50 * MBPS)
                    .workload(custom(
                        "lat", collect=lambda system, until, state: collected))
                    .deploy(seed=1, duration=1.0).compile())

        run = scenario({"p50": 1.0, "p90": 2.0}).run(backend="baremetal")
        metrics = run.metric("lat")
        assert metrics.summary == {"p50": 1.0, "p90": 2.0}
        assert metrics.primary == "p50" and metrics.value == 1.0
        clone = ScenarioRun.from_dict(run.to_dict())
        assert clone.metric("lat").stat("p90") == 2.0
        explicit = scenario({"n": 3, "value": 7}).run(backend="baremetal")
        assert explicit.metric("lat").value == 7.0
        mixed = scenario({"p50": 1.0, "who": "x"}).run(backend="baremetal")
        assert mixed.metric("lat").summary == {}

    def test_compare_unknown_key_lists_available(self):
        run = bulk_scenario().run(backend="kollaps")
        with pytest.raises(KeyError) as error:
            run.compare(run)["nope"]
        assert "available workload keys" in str(error.value)

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_metadata_bytes_are_kollaps_provenance(self, backend):
        """The Emulation Managers' wire bytes ride on the run and through
        its export; a comparator has no managers and says so."""
        import json
        run = bulk_scenario().run(backend=backend)
        if backend == "kollaps":
            assert run.metadata_bytes == \
                run.engine.total_metadata_wire_bytes() > 0
        else:
            assert run.metadata_bytes is None
        payload = json.loads(json.dumps(run.to_dict()))
        assert ScenarioRun.from_dict(payload).metadata_bytes == \
            run.metadata_bytes

    def test_to_dict_round_trips_through_json(self):
        import json
        run = probing_scenario().run(backend="kollaps")
        payload = json.loads(json.dumps(run.to_dict()))
        assert payload["backend"] == "kollaps"
        assert set(payload["workloads"]) == {"i", "ping:c2->server"}
        assert payload["workloads"]["i"]["primary"] == "throughput_mean"
        assert payload["workloads"]["ping:c2->server"]["latency"]


class TestScenarioEngineHelper:
    def test_kollaps_engine_via_registry(self):
        from repro.core.engine import EmulationEngine
        compiled = point_to_point(50 * MBPS).deploy(machines=2,
                                                    seed=3).compile()
        engine = resolve_backend("kollaps").prepare(compiled)
        assert isinstance(engine, EmulationEngine)

    def test_baseline_system_via_registry(self):
        from repro.baselines import BareMetalTestbed
        compiled = point_to_point(50 * MBPS).deploy(seed=3).compile()
        system = resolve_backend("baremetal").prepare(compiled)
        assert isinstance(system, BareMetalTestbed)


class TestExecutionBackendProtocol:
    def test_lifecycle_hooks_run_in_order(self):
        calls = []

        class Recorder(KollapsBackend):
            name = "recorder"

            def prepare(self, compiled):
                calls.append("prepare")
                return super().prepare(compiled)

            def start_workloads(self):
                calls.append("start")
                super().start_workloads()

            def advance(self, until):
                calls.append("advance")
                super().advance(until)

            def collect(self, until):
                calls.append("collect")
                return super().collect(until)

            def teardown(self):
                calls.append("teardown")

        run = bulk_scenario().run(backend=Recorder())
        assert calls == ["prepare", "start", "advance", "collect",
                         "teardown"]
        assert run.backend == "recorder"

    def test_teardown_runs_even_when_collection_fails(self):
        torn_down = []

        class Exploding(KollapsBackend):
            name = "exploding"

            def collect(self, until):
                raise RuntimeError("collector died")

            def teardown(self):
                torn_down.append(True)

        with pytest.raises(RuntimeError, match="collector died"):
            bulk_scenario().run(backend=Exploding())
        assert torn_down == [True]

    def test_subclass_must_implement_build(self):
        backend = ExecutionBackend()
        with pytest.raises(NotImplementedError):
            backend.prepare(bulk_scenario())


class TestJitterDistribution:
    """``jitter_distribution: uniform`` survives the collapse: Kollaps
    shapes an all-uniform path uniformly (it used to drop the field and
    install a normal netem stage), as bare metal does hop by hop."""

    LATENCY, JITTER = 0.010, 0.002

    def scenario(self, *distributions):
        builder = Scenario.build("jittered").service("a").service("b")
        hops = ["a"] + [f"s{index}" for index in range(1, len(distributions))]
        builder.bridges(*hops[1:])
        for orig, dest, distribution in zip(hops, hops[1:] + ["b"],
                                            distributions):
            builder.link(orig, dest, latency=self.LATENCY, up="100Mbps",
                         jitter=self.JITTER,
                         jitter_distribution=distribution)
        return (builder
                .workload(ping("a", "b", count=400, interval=0.01, key="p"))
                .deploy(machines=1, seed=5, duration=6.0,
                        enforce_bandwidth_sharing=False)
                .compile())

    @pytest.mark.parametrize("distributions, expected", [
        (("uniform", "uniform"), "uniform"),
        (("uniform", "normal"), "normal"),
        (("normal", "normal"), "normal"),
    ])
    def test_netem_stage_of_the_collapsed_path(self, distributions,
                                               expected):
        engine = self.scenario(*distributions).engine()
        netem = engine.tcals["a"].shaping_for("b").netem
        assert netem.jitter == pytest.approx(self.JITTER * 2 ** 0.5)
        assert netem.distribution == expected

    def rtt_spread(self, *distributions):
        run = self.scenario(*distributions).run(backend="kollaps")
        rtts = [rtt for _, rtt in run.metrics["p"].latency]
        assert len(rtts) == 400
        return max(rtts) - min(rtts)

    def test_uniform_samples_stay_inside_their_bound(self):
        """A uniform draw of deviation σ never leaves ±√3·σ, so an RTT
        (two draws) spans at most 4·√3·σ; 400 normal draws do leave it."""
        sigma = self.JITTER * 2 ** 0.5
        bound = 4 * 3 ** 0.5 * sigma
        assert self.rtt_spread("uniform", "uniform") <= bound
        assert self.rtt_spread("normal", "normal") > bound
