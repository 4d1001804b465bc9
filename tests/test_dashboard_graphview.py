"""Tests for the dashboard's sparklines and manager pane."""

from repro.core import EmulationEngine, EngineConfig
from repro.dashboard import Dashboard, render_flow_history, sparkline
from repro.scenario.topologies import point_to_point


class TestSparkline:
    def test_empty(self):
        assert sparkline([]) == ""

    def test_flat_zero(self):
        assert sparkline([0.0, 0.0, 0.0]) == "▁▁▁"

    def test_monotone_ramp(self):
        strip = sparkline([1.0, 2.0, 3.0, 4.0])
        assert len(strip) == 4
        assert strip[-1] == "█"
        # Non-decreasing bar heights for a ramp.
        assert list(strip) == sorted(strip)

    def test_compresses_to_width(self):
        strip = sparkline(list(range(1000)), width=50)
        assert len(strip) == 50
        assert strip[-1] == "█"

    def test_peak_position(self):
        strip = sparkline([0.0, 10.0, 0.0])
        assert strip[1] == "█"
        assert strip[0] == "▁"


class TestDashboardIntegration:
    def make_engine(self):
        engine = EmulationEngine(point_to_point(50e6).compile().topology,
                                 config=EngineConfig(machines=2, seed=5))
        engine.start_flow("f", "client", "server")
        engine.run(until=2.0)
        return engine

    def test_render_managers(self):
        dashboard = Dashboard(self.make_engine())
        text = dashboard.render_managers()
        assert "host-0" in text and "host-1" in text
        assert "loops=" in text

    def test_flow_history_sparkline(self):
        engine = self.make_engine()
        text = render_flow_history(engine.fluid, "f")
        assert text.startswith("f:")
        assert "peak=" in text

    def test_full_render_includes_managers(self):
        dashboard = Dashboard(self.make_engine())
        assert "emulation managers:" in dashboard.render()
