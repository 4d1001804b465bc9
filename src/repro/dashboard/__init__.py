"""Textual experiment monitor (the web dashboard's terminal stand-in)."""

from repro.dashboard.monitor import CampaignMonitor, Dashboard
from repro.dashboard.graphview import render_flow_history, sparkline

__all__ = [
    "CampaignMonitor",
    "Dashboard",
    "render_flow_history",
    "sparkline",
]
