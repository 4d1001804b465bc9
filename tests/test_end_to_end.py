"""End-to-end journeys: description -> scenario -> emulation -> report.

Each test walks the full user path a downstream adopter would take,
crossing every public layer in one run: the description language, the
scenario DSL, the deployment generator, the engine, the applications and
the dashboard.
"""

import pytest

from repro.apps import Pinger, UdpBlaster
from repro.core import EmulationEngine, EngineConfig
from repro.dashboard import Dashboard, render_collapsed_matrix
from repro.orchestration import DeploymentGenerator, render_plan
from repro.scenario import Scenario
from repro.scenario.thunderstorm import compile_scenario

DESCRIPTION = """\
experiment:
  services:
    name: api
    image: "api-server"
    name: cache
    image: "memcached"
    name: edge
    image: "nginx"
  bridges:
    name: rack1
    name: rack2
  links:
    orig: api
    dest: rack1
    latency: 1
    up: 1Gbps
    down: 1Gbps
    orig: cache
    dest: rack1
    latency: 1
    up: 1Gbps
    down: 1Gbps
    orig: rack1
    dest: rack2
    latency: 5
    up: 100Mbps
    down: 100Mbps
    orig: edge
    dest: rack2
    latency: 1
    up: 1Gbps
    down: 1Gbps
"""

SCENARIO = """\
# degrade the inter-rack trunk, then cut and restore it
at 4 set link rack1--rack2 latency=50ms
at 8 flap link rack1--rack2 for 2
at 14 set link rack1--rack2 latency=5ms
"""


@pytest.fixture
def deployment():
    compiled = Scenario.from_text(DESCRIPTION).compile()
    topology, schedule = compiled.topology, compiled.schedule
    for event in compile_scenario(SCENARIO, topology):
        schedule.add(event)
    engine = EmulationEngine(topology, schedule,
                             config=EngineConfig(machines=2, seed=99))
    return topology, engine


class TestJourney:
    def test_scenario_shapes_application_traffic(self, deployment):
        _topology, engine = deployment
        pinger = Pinger(engine.sim, engine.dataplane, "api", "edge",
                        count=160, interval=0.1).start()
        engine.run(until=16.5)
        rtts = pinger.stats.rtts
        # Phase 1 (0-4 s): 7 ms one way -> 14 ms RTT.
        assert rtts[10] == pytest.approx(0.014, rel=0.05)
        # Phase 2 (4-8 s): trunk at 50 ms -> 104 ms RTT.
        assert rtts[55] == pytest.approx(0.104, rel=0.05)
        # Phase 3 (8-10 s): trunk down, echoes lost.
        assert pinger.stats.lost > 10
        # Phase 5 (after 14 s): back to 14 ms.
        assert rtts[-1] == pytest.approx(0.014, rel=0.05)

    def test_bulk_flow_survives_flap(self, deployment):
        _topology, engine = deployment
        engine.start_flow("sync", "api", "edge")
        engine.run(until=16.0)
        during_flap = engine.fluid.mean_throughput("sync", 8.5, 10.0)
        recovered = engine.fluid.mean_throughput("sync", 14.0, 16.0)
        assert during_flap < 5e6
        assert recovered == pytest.approx(100e6, rel=0.15)

    def test_udp_sees_outage_as_loss(self, deployment):
        _topology, engine = deployment
        blaster = UdpBlaster(engine.sim, engine.dataplane, "cache", "edge",
                             rate=5e6)
        engine.run(until=16.0)
        assert blaster.stats.dropped > 0
        assert blaster.stats.received > 0
        # Overall loss is roughly the outage fraction (2 s of 16 s).
        assert blaster.stats.loss_rate == pytest.approx(2 / 16, abs=0.06)

    def test_dashboard_reports_the_run(self, deployment):
        _topology, engine = deployment
        engine.start_flow("sync", "api", "edge")
        engine.run(until=6.0)
        dashboard = Dashboard(engine)
        text = dashboard.render()
        assert "api" in text and "edge" in text
        assert "sync" in dashboard.render_flow_histories()
        matrix = render_collapsed_matrix(engine.current_state.collapsed)
        # The degraded trunk shows in the collapsed matrix (52 ms e2e).
        assert "52ms" in matrix

    def test_plans_render_for_the_same_description(self, deployment):
        topology, _engine = deployment
        generator = DeploymentGenerator(topology)
        compose = render_plan(generator.swarm_plan(["m0", "m1"]))
        manifests = render_plan(generator.kubernetes_plan(["m0", "m1"]))
        for name in ("api", "cache", "edge"):
            assert name in compose
            assert name in manifests
        assert "kollaps-bootstrapper" in compose
        assert "DaemonSet" in manifests
