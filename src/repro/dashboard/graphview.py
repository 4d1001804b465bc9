"""Sparkline rendering of flow-rate histories for the dashboard."""

from __future__ import annotations

from typing import Sequence

from repro.units import format_rate

__all__ = ["sparkline", "render_flow_history"]

_BARS = "▁▂▃▄▅▆▇█"


def sparkline(values: Sequence[float], *, width: int = 60) -> str:
    """Compress ``values`` into a fixed-width unicode bar strip."""
    if not values:
        return ""
    if len(values) > width:
        # Average into `width` buckets.
        bucket = len(values) / width
        values = [sum(values[int(i * bucket):int((i + 1) * bucket) or 1])
                  / max(1, len(values[int(i * bucket):int((i + 1) * bucket)]))
                  for i in range(width)]
    top = max(values)
    if top <= 0:
        return _BARS[0] * len(values)
    return "".join(
        _BARS[min(len(_BARS) - 1,
                  int(value / top * (len(_BARS) - 1) + 0.5))]
        for value in values)


def render_flow_history(fluid, key, *, width: int = 60) -> str:
    """A one-line sparkline of a flow's delivered-rate history."""
    series = fluid.series(key)
    if not series:
        return f"{key}: (no history)"
    rates = series.values
    peak = max(rates)
    return (f"{key}: {sparkline(rates, width=width)} "
            f"peak={format_rate(peak)} last={format_rate(rates[-1])}")
