"""Textual dashboard: topology, services, flows and events at a glance.

The real Kollaps ships a web dashboard (§3); in this reproduction the same
information renders as text, suitable for printing between experiment
phases or piping into logs.
"""

from __future__ import annotations

from typing import Dict, List, Optional, TextIO

from repro.units import format_rate, format_time

__all__ = ["Dashboard", "CampaignMonitor"]


class Dashboard:
    """Renders engine state; also keeps a bounded in-memory event log."""

    def __init__(self, engine, *, log_limit: int = 1000) -> None:
        self.engine = engine
        self.log_limit = log_limit
        self.events: List[str] = []

    # ------------------------------------------------------------ event log
    def log(self, message: str) -> None:
        self.events.append(f"[{self.engine.sim.now:10.3f}s] {message}")
        if len(self.events) > self.log_limit:
            del self.events[:len(self.events) - self.log_limit]

    # -------------------------------------------------------------- renders
    def render_topology(self) -> str:
        state = self.engine.current_state
        lines = [f"topology @ {self.engine.sim.now:.3f}s "
                 f"(state from t={state.time:.3f}s)"]
        lines.append(state.topology.describe())
        return "\n".join(lines)

    def render_services(self) -> str:
        lines = ["services:"]
        placement = self.engine.placement
        for name, service in self.engine.current_state.topology.services.items():
            machines = sorted({placement.get(container, "?")
                               for container in service.container_names()})
            lines.append(f"  {name}: image={service.image} "
                         f"replicas={service.replicas} on {', '.join(machines)}")
        return "\n".join(lines)

    def render_flows(self) -> str:
        lines = ["active flows:"]
        flows = self.engine.fluid.active_flows()
        if not flows:
            lines.append("  (none)")
        for flow in flows:
            lines.append("  " + flow.describe())
        return "\n".join(lines)

    def render_metadata(self) -> str:
        lines = ["metadata traffic:"]
        for machine, stats in sorted(self.engine.metadata_stats().items()):
            lines.append(
                f"  {machine}: tx={stats.wire_bytes_sent()}B "
                f"({stats.datagrams_sent} datagrams), "
                f"rx={stats.bytes_received}B, "
                f"shm={stats.shared_memory_messages}")
        return "\n".join(lines)

    def render_managers(self) -> str:
        """Per-machine Emulation Manager counters."""
        lines = ["emulation managers:"]
        for machine, manager in sorted(self.engine.managers.items()):
            contended = len(manager._link_contended)
            lines.append(f"  {machine}: loops={manager.loops} "
                         f"enforcements={manager.enforcements} "
                         f"cores={len(manager.cores)} "
                         f"contended-links={contended}")
        return "\n".join(lines)

    def render(self) -> str:
        sections = [self.render_topology(), self.render_services(),
                    self.render_flows(), self.render_managers(),
                    self.render_metadata()]
        if self.events:
            sections.append("events:\n" + "\n".join(
                "  " + event for event in self.events[-10:]))
        return "\n\n".join(sections)


class CampaignMonitor:
    """A campaign's progress feed: per-point events, tallies, a bar.

    Duck-typed against :class:`repro.campaign.executor.CampaignEvent`
    (anything with ``kind``/``point``/``error``/``elapsed``/``detail``),
    so the dashboard stays import-independent of the campaign package.
    Pass an instance as ``Campaign.run(progress=...)``: each event
    optionally streams one feed line (``stream=sys.stderr`` is the CLI's
    live ticker) and :meth:`render` summarises the sweep at any moment.
    """

    #: Event kinds that mean "one more point has an outcome".
    _TERMINAL = ("ok", "incompatible", "error", "skip")

    def __init__(self, total: Optional[int] = None, *,
                 stream: Optional[TextIO] = None,
                 log_limit: int = 200) -> None:
        self.total = total
        self.stream = stream
        self.log_limit = log_limit
        self.counts: Dict[str, int] = {}
        self.events: List[str] = []

    # ------------------------------------------------------------- ingestion
    def __call__(self, event) -> None:
        kind = event.kind
        self.counts[kind] = self.counts.get(kind, 0) + 1
        if kind == "start":
            return                       # submissions aren't outcomes
        where = event.point.describe() if event.point is not None else ""
        detail = getattr(event, "detail", "")
        suffix = ""
        if kind == "error" and event.error:
            suffix = f" — {event.error.splitlines()[0]}"
        elif kind == "incompatible" and event.error:
            suffix = f" — {event.error.splitlines()[0]}"
        elif detail:
            suffix = f" — {detail}"
        timing = f" ({event.elapsed:.2f}s)" if kind == "ok" else ""
        line = f"[{self.done}/{self.total or '?'}] {kind:<12} " \
               f"{where}{timing}{suffix}"
        self.events.append(line)
        if len(self.events) > self.log_limit:
            del self.events[:len(self.events) - self.log_limit]
        if self.stream is not None:
            print(line, file=self.stream)

    # -------------------------------------------------------------- progress
    @property
    def done(self) -> int:
        """Points with an outcome (completed, skipped, failed, N/A)."""
        return sum(self.counts.get(kind, 0) for kind in self._TERMINAL)

    def render(self, *, width: int = 40) -> str:
        """The feed pane: a progress bar, tallies and recent events."""
        total = self.total if self.total else max(self.done, 1)
        filled = int(width * min(self.done / total, 1.0))
        bar = "#" * filled + "-" * (width - filled)
        tallies = ", ".join(
            f"{self.counts[kind]} {kind}"
            for kind in ("ok", "skip", "incompatible", "error", "fallback")
            if self.counts.get(kind)) or "nothing yet"
        lines = [f"campaign progress [{bar}] {self.done}"
                 f"/{self.total if self.total is not None else '?'}",
                 f"  {tallies}"]
        if self.events:
            lines.append("  recent:")
            lines.extend("    " + event for event in self.events[-5:])
        return "\n".join(lines)

