"""Textual dashboard: topology, services, flows and events at a glance.

The real Kollaps ships a web dashboard (§3); in this reproduction the same
information renders as text, suitable for printing between experiment
phases or piping into logs.
"""

from __future__ import annotations

from typing import Dict, List, Optional, TextIO, Tuple

from repro.units import format_rate, format_time

__all__ = ["Dashboard", "CampaignMonitor", "FleetMonitor"]


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

    def render_graph(self) -> str:
        """ASCII adjacency + collapsed matrix (the web UI's graph pane)."""
        from repro.dashboard.graphview import (
            render_adjacency,
            render_collapsed_matrix,
        )

        state = self.engine.current_state
        return (render_adjacency(state.topology) + "\n\n"
                + render_collapsed_matrix(state.collapsed))

    def render_flow_histories(self, *, width: int = 60) -> str:
        """Sparkline per tracked flow (delivered-rate history)."""
        from repro.dashboard.graphview import render_flow_history

        keys = sorted(self.engine.fluid.flows, key=str)
        if not keys:
            return "flow histories:\n  (none)"
        lines = ["flow histories:"]
        for key in keys:
            lines.append("  " + render_flow_history(self.engine.fluid, key,
                                                    width=width))
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


class FleetMonitor:
    """A distributed campaign's control-room pane: workers and deltas.

    Duck-typed against :class:`repro.campaign.distributed.coordinator
    .FleetEvent` (anything with ``kind``/``time``/``worker``/``point``/
    ``status``/``lease_id``/``count``/``detail``/``rows``), keeping the
    dashboard import-independent of the campaign package.  Pass an
    instance as ``Coordinator(progress=...)`` (or ``run_fleet(progress=
    ...)``): it tracks per-worker lease/heartbeat state and maintains
    *live aggregate deltas* — a running mean of every (backend, workload)
    headline statistic, updated as each shard record merges, with the
    shift the newest merge caused.  :meth:`render` is the whole pane;
    ``stream`` tees a feed line per consequential event.
    """

    def __init__(self, total: Optional[int] = None, *,
                 stream: Optional[TextIO] = None,
                 log_limit: int = 200) -> None:
        self.total = total
        self.stream = stream
        self.log_limit = log_limit
        self.completed = 0
        self.counts: Dict[str, int] = {}
        self.events: List[str] = []
        self.now = 0.0
        #: worker -> {"status", "machine", "lease", "leased", "done",
        #:            "last_seen", "first_seen", "metrics"}
        self.workers: Dict[str, Dict[str, object]] = {}
        #: (backend, workload) -> [count, mean, last delta]
        self.aggregates: Dict[Tuple[str, str], List[float]] = {}

    # ------------------------------------------------------------- ingestion
    def _worker(self, name: str) -> Dict[str, object]:
        return self.workers.setdefault(
            name, {"status": "?", "machine": "", "lease": None,
                   "leased": 0, "done": 0, "last_seen": self.now,
                   "first_seen": self.now, "metrics": None})

    def __call__(self, event) -> None:
        kind = event.kind
        self.counts[kind] = self.counts.get(kind, 0) + 1
        self.now = max(self.now, getattr(event, "time", 0.0))
        line = None
        if kind == "serve":
            self.total = event.count if self.total is None else self.total
            line = f"serving {event.count} points ({event.detail})"
        elif kind == "join":
            state = self._worker(event.worker)
            state["status"], state["machine"] = "live", event.detail
            state["last_seen"] = self.now
            line = f"{event.worker} joined" + (
                f" on {event.detail}" if event.detail else "")
        elif kind == "wait":
            self._worker(event.worker)["status"] = "waiting"
            line = f"{event.worker} waiting — {event.detail}"
        elif kind == "lease":
            state = self._worker(event.worker)
            state["status"], state["lease"] = "live", event.lease_id
            state["leased"], state["done"] = event.count, 0
            line = f"{event.worker} leased {event.count} points " \
                   f"(lease {event.lease_id})"
        elif kind == "heartbeat":
            state = self._worker(event.worker)
            state["last_seen"] = self.now
            snapshot = getattr(event, "metrics", None)
            if isinstance(snapshot, dict):
                state["metrics"] = snapshot
            if state["status"] == "suspect":
                state["status"] = "live"
        elif kind == "merge":
            self.completed = max(self.completed, event.count)
            state = self._worker(event.worker)
            state["done"] = int(state["done"]) + 1
            deltas = [self._merge_row(*row) for row in event.rows]
            where = event.point.describe() if event.point is not None else ""
            suffix = ("  " + "; ".join(deltas)) if deltas else ""
            line = f"[{self.completed}/{self.total or '?'}] " \
                   f"{event.status} {where} via {event.worker}{suffix}"
        elif kind == "expire":
            state = self._worker(event.worker)
            state["status"], state["lease"] = "suspect", None
            line = f"{event.worker} lease {event.lease_id} expired — " \
                   f"{event.detail}"
        elif kind == "done":
            line = f"fleet done: {event.count} points in the store"
        if line is not None:
            self.events.append(line)
            if len(self.events) > self.log_limit:
                del self.events[:len(self.events) - self.log_limit]
            if self.stream is not None:
                print(line, file=self.stream)

    def _merge_row(self, backend: str, workload: str, value: float) -> str:
        """Fold one merged headline value into the running aggregate."""
        cell = self.aggregates.setdefault((backend, workload),
                                          [0.0, 0.0, 0.0])
        count, mean, _last = cell
        new_mean = (mean * count + value) / (count + 1)
        cell[0], cell[1], cell[2] = count + 1, new_mean, new_mean - mean
        return (f"{workload}@{backend} mean {new_mean:g} "
                f"({new_mean - mean:+g})")

    # ------------------------------------------------------------ telemetry
    @staticmethod
    def _metric(snapshot: Dict, name: str, field: str = "value") -> float:
        doc = snapshot.get(name)
        if not isinstance(doc, dict):
            return 0.0
        value = doc.get(field, 0.0)
        return float(value) if value is not None else 0.0

    def worker_telemetry(self, name: str) -> Optional[Dict[str, float]]:
        """Derived live stats from a worker's latest heartbeat snapshot.

        Returns None until that worker has shipped metrics.  ``rate`` is
        points completed per second of fleet time since the worker was
        first seen; ``solver_share``/``collapse_share`` are fractions of
        the worker's busy seconds spent in the fair-share solver and the
        collapse respectively (0.0 when tracing was off on the worker).
        """
        state = self.workers.get(name)
        if state is None or not isinstance(state["metrics"], dict):
            return None
        snapshot = state["metrics"]
        points = self._metric(snapshot, "worker.points")
        busy = self._metric(snapshot, "worker.busy_seconds")
        alive = max(self.now - float(state["first_seen"]), 1e-9)
        waits = snapshot.get("worker.lease_wait_seconds", {})
        wait_count = waits.get("count", 0) if isinstance(waits, dict) else 0
        wait_sum = waits.get("sum", 0.0) if isinstance(waits, dict) else 0.0
        return {
            "points": points,
            "rate": points / alive,
            "busy": busy,
            "solver_share": (self._metric(
                snapshot, "worker.sharing.solver_seconds") / busy
                if busy else 0.0),
            "collapse_share": (self._metric(
                snapshot, "worker.collapse.seconds") / busy
                if busy else 0.0),
            "lease_wait_mean": (wait_sum / wait_count
                                if wait_count else 0.0),
        }

    def render_telemetry(self) -> str:
        """The live points/sec and time-breakdown pane per worker."""
        rows = []
        for name in sorted(self.workers):
            stats = self.worker_telemetry(name)
            if stats is None:
                continue
            breakdown = ""
            if stats["busy"]:
                breakdown = (f", solver {stats['solver_share']*100:.0f}% "
                             f"collapse {stats['collapse_share']*100:.0f}% "
                             f"of {stats['busy']:.2f}s busy")
            rows.append(f"  {name}: {int(stats['points'])} points "
                        f"({stats['rate']:.2f}/s)"
                        f"{breakdown}, "
                        f"lease wait {stats['lease_wait_mean']:.2f}s")
        if not rows:
            return "telemetry:\n  (no worker metrics yet)"
        return "telemetry:\n" + "\n".join(rows)

    # --------------------------------------------------------------- render
    def render(self, *, width: int = 40) -> str:
        """Progress bar + per-worker lease/heartbeat table + deltas."""
        total = self.total if self.total else max(self.completed, 1)
        filled = int(width * min(self.completed / total, 1.0))
        bar = "#" * filled + "-" * (width - filled)
        lines = [f"fleet progress [{bar}] {self.completed}"
                 f"/{self.total if self.total is not None else '?'}"]
        if self.workers:
            lines.append("workers:")
            for name in sorted(self.workers):
                state = self.workers[name]
                lease = ("-" if state["lease"] is None
                         else f"#{state['lease']} "
                              f"{state['done']}/{state['leased']}")
                age = self.now - float(state["last_seen"])
                machine = f" on {state['machine']}" if state["machine"] else ""
                lines.append(f"  {name}{machine}: {state['status']}, "
                             f"lease {lease}, "
                             f"heartbeat {age:.1f}s ago")
        if self.aggregates:
            lines.append("aggregate means (live):")
            for (backend, workload) in sorted(self.aggregates):
                count, mean, delta = self.aggregates[(backend, workload)]
                lines.append(f"  {workload}@{backend}: mean {mean:g} "
                             f"over {int(count)} ({delta:+g} on last merge)")
        if any(isinstance(state.get("metrics"), dict)
               for state in self.workers.values()):
            lines.append(self.render_telemetry())
        if self.events:
            lines.append("recent:")
            lines.extend("  " + event for event in self.events[-5:])
        return "\n".join(lines)
