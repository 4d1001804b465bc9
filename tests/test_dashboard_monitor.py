"""Tests for the campaign monitor in repro.dashboard.monitor.

The monitor is duck-typed against its event shape, so these tests drive
it with the real event dataclass where convenient and with bare
namespaces where that proves the decoupling — no engine, no store.
"""

import io
from types import SimpleNamespace

from repro.campaign.executor import CampaignEvent
from repro.campaign.grid import Point
from repro.dashboard.monitor import CampaignMonitor


def make_point(index=0, seed=1, label="kollaps_def"):
    return Point(campaign="fig5", index=index, params=(("flows", 4),),
                 seed=seed, backend="kollaps", label=label)


class TestCampaignMonitor:
    def test_start_events_are_not_outcomes(self):
        monitor = CampaignMonitor(total=4)
        monitor(CampaignEvent(kind="start", point=make_point()))
        assert monitor.done == 0
        assert monitor.counts == {"start": 1}

    def test_terminal_kinds_advance_done(self):
        monitor = CampaignMonitor(total=4)
        for kind in ("ok", "skip", "incompatible", "error"):
            monitor(CampaignEvent(kind=kind, point=make_point()))
        assert monitor.done == 4

    def test_feed_line_shape(self):
        stream = io.StringIO()
        monitor = CampaignMonitor(total=2, stream=stream)
        monitor(CampaignEvent(kind="ok", point=make_point(seed=7),
                              elapsed=1.25))
        line = stream.getvalue().strip()
        assert line.startswith("[1/2] ok")
        assert "seed=7" in line and "(1.25s)" in line

    def test_error_includes_first_error_line(self):
        monitor = CampaignMonitor(total=1)
        monitor(CampaignEvent(kind="error", point=make_point(),
                              error="RuntimeError: boom\n  trace..."))
        assert "RuntimeError: boom" in monitor.events[-1]
        assert "trace" not in monitor.events[-1]

    def test_render_bar_and_tallies(self):
        monitor = CampaignMonitor(total=4)
        monitor(CampaignEvent(kind="ok", point=make_point(), elapsed=0.5))
        monitor(CampaignEvent(kind="skip", point=make_point(index=1)))
        text = monitor.render(width=4)
        assert "campaign progress [##--] 2/4" in text
        assert "1 ok, 1 skip" in text
        assert "recent:" in text

    def test_render_unknown_total(self):
        monitor = CampaignMonitor()
        monitor(CampaignEvent(kind="ok", point=make_point(), elapsed=0.1))
        assert "/?" in monitor.render()

    def test_event_log_bounded(self):
        monitor = CampaignMonitor(total=100, log_limit=5)
        for index in range(20):
            monitor(CampaignEvent(kind="ok", point=make_point(index=index),
                                  elapsed=0.0))
        assert len(monitor.events) == 5

    def test_duck_typing_accepts_namespaces(self):
        monitor = CampaignMonitor(total=1)
        monitor(SimpleNamespace(kind="ok", point=None, error="",
                                elapsed=0.2, detail="cached"))
        assert monitor.done == 1
        assert "cached" in monitor.events[-1]

