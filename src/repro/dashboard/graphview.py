"""ASCII rendering of topologies and collapsed paths for the dashboard.

The web dashboard of the real system shows "a graph-based representation
of the emulated topology" (§3).  This module renders the same structure
as text: an adjacency view of the physical topology, the collapsed
end-to-end matrix, and sparkline-style flow-rate histories.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.units import format_rate, format_time

__all__ = ["render_adjacency", "render_collapsed_matrix", "sparkline",
           "render_flow_history"]

_BARS = "▁▂▃▄▅▆▇█"


def render_adjacency(topology) -> str:
    """One line per node with its outgoing links and their properties."""
    lines = [f"{topology.name}: adjacency"]
    for node in sorted(topology.node_names()):
        neighbours = topology.neighbours(node)
        marker = "[svc]" if node in topology.services else "[brg]"
        if not neighbours:
            lines.append(f"  {marker} {node} (isolated)")
            continue
        lines.append(f"  {marker} {node}")
        for destination, link in sorted(neighbours,
                                        key=lambda item: item[0]):
            lines.append(f"      -> {destination:<16} "
                         f"{link.properties.describe()}")
    return "\n".join(lines)


def render_collapsed_matrix(collapsed, *,
                            sources: Optional[Sequence[str]] = None,
                            limit: int = 12) -> str:
    """The end-to-end latency/bandwidth matrix of a collapsed topology.

    With more than ``limit`` containers only the first ``limit`` are
    shown (matrices grow quadratically; the dashboard is a glance, not a
    dump).
    """
    paths = list(collapsed.paths())
    names = sorted({path.source for path in paths}
                   | {path.destination for path in paths})
    if sources is not None:
        names = [name for name in names if name in set(sources)]
    clipped = False
    if len(names) > limit:
        names, clipped = names[:limit], True
    by_pair: Dict[Tuple[str, str], object] = {
        (path.source, path.destination): path for path in paths}
    width = max([len(name) for name in names] + [8]) + 1
    header = " " * width + "".join(name.ljust(width) for name in names)
    lines = ["collapsed end-to-end (latency / min bandwidth)", header]
    for source in names:
        cells = []
        for destination in names:
            if source == destination:
                cells.append("-".ljust(width))
                continue
            path = by_pair.get((source, destination))
            if path is None:
                cells.append("unreach".ljust(width))
                continue
            cell = (f"{format_time(path.properties.latency)}/"
                    f"{format_rate(path.properties.bandwidth)}")
            cells.append(cell.ljust(width))
        lines.append(source.ljust(width) + "".join(cells))
    if clipped:
        lines.append(f"  ... clipped to the first {limit} containers")
    return "\n".join(lines)


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
