"""Declarative workload specs attached to a :class:`Scenario`.

A workload is *what runs on the emulated network*: bulk flows, iperf
measurements, ping probes, HTTP load generators.  Specs are plain data
until an :class:`~repro.scenario.backends.ExecutionBackend` installs them
on a live system; afterwards each spec collects its own result and a
backend-independent :class:`~repro.scenario.results.Metrics` record, so a
scenario run returns application measurements (the paper's "what
unmodified applications observe") without any hand-rolled engine plumbing
at the call site.

Each spec declares the data ``planes`` it needs (``"bulk"`` for fluid
flows, ``"packet"`` for per-packet applications); backends check those
declarations against their capabilities before anything runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Mapping, Optional, Sequence, Tuple, \
    Union

from repro.netstack.plane import BULK_PLANE, PACKET_PLANE
from repro.scenario.results import Metrics, series_summary
from repro.units import coerce_rate, coerce_time

__all__ = ["Workload", "FlowWorkload", "IperfWorkload", "PingWorkload",
           "HttpLoadWorkload", "CurlSwarmWorkload", "CustomWorkload",
           "flow", "iperf", "ping", "udp_blast", "http_load", "curl_swarm",
           "custom"]

Number = Union[str, float, int]
_GREEDY = float("inf")   # a flow with no rate cap


def _throughput_summary(series, mean: float, *,
                        workload: Optional[Hashable] = None) -> dict:
    # An empty series (a flow that never got a sample) still has its mean;
    # series_summary itself refuses empty input, loudly.
    summary = {}
    if series:
        summary = {f"throughput_{name}": value
                   for name, value
                   in series_summary(series, workload=workload).items()
                   if name in ("min", "max")}
    summary["throughput_mean"] = mean
    return summary


class Workload:
    """Base: ``install`` before the run, ``collect``/``metrics`` after it."""

    key: Hashable
    kind: str = "custom"
    #: Data planes this workload needs; backends validate against these.
    planes: frozenset = frozenset()

    def install(self, engine) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def collect(self, engine, until: float):  # pragma: no cover - interface
        raise NotImplementedError

    def metrics(self, engine, until: float, result) -> Metrics:
        """A backend-independent record built from the collected result.

        A number is the ``value`` statistic; a mapping of numbers *is* the
        summary (an explicit ``"value"``, else its first key, is the
        headline).  Other non-numeric results (tuples, stats objects, ...)
        get an *empty* summary rather than a fabricated 0.0, so
        comparisons skip them instead of reporting a fake zero deviation.
        """
        primary = "value"
        try:
            if isinstance(result, Mapping):
                summary = {str(name): float(value)
                           for name, value in result.items()}
                if "value" not in summary:
                    primary = next(iter(summary), "value")
            else:
                summary = {"value": float(result)}
        except (TypeError, ValueError):
            summary = {}
        return Metrics(key=self.key, kind=self.kind,
                       summary=summary, primary=primary)

    # Per-engine workload state (a pinger, a client, custom install state):
    # stashed on the live system so collect() finds its own even when the
    # same spec runs twice on different engines.
    def _stash(self, engine, state) -> None:
        engine.__dict__.setdefault("_workload_state", {})[self.key] = state

    def _stashed(self, engine):
        return engine._workload_state[self.key]

    def horizon(self) -> float:
        """Latest time this workload needs the run to reach (0 = open)."""
        return 0.0


@dataclass(frozen=True)
class FlowWorkload(Workload):
    """A bulk flow on the fluid plane; result is its mean throughput."""

    source: str
    destination: str
    demand: float = float("inf")
    protocol: str = "tcp"
    congestion_control: str = "cubic"
    start: float = 0.0
    stop: Optional[float] = None
    key: Hashable = None

    kind = "flow"
    planes = frozenset({BULK_PLANE})

    def __post_init__(self) -> None:
        if self.key is None:
            object.__setattr__(self, "key",
                               f"{self.source}->{self.destination}")

    def install(self, engine) -> None:
        engine.start_flow(self.key, self.source, self.destination,
                          protocol=self.protocol,
                          congestion_control=self.congestion_control,
                          demand=self.demand, start_time=self.start)
        if self.stop is not None:
            engine.sim.at(self.stop,
                          lambda: engine.stop_flow(self.key))

    def collect(self, engine, until: float) -> float:
        end = until if self.stop is None else min(self.stop, until)
        return engine.fluid.mean_throughput(self.key, self.start, end)

    def metrics(self, engine, until: float, result) -> Metrics:
        series = tuple(engine.fluid.series(self.key))
        return Metrics(key=self.key, kind=self.kind, throughput=series,
                       summary=_throughput_summary(series, float(result),
                                                   workload=self.key),
                       primary="throughput_mean")

    def horizon(self) -> float:
        return self.stop if self.stop is not None else 0.0


@dataclass(frozen=True)
class IperfWorkload(Workload):
    """An iperf3-like measurement: a timed flow reported as goodput."""

    source: str
    destination: str
    duration: float = 60.0
    demand: float = float("inf")
    protocol: str = "tcp"
    congestion_control: str = "cubic"
    warmup: float = 2.0
    start: float = 0.0
    key: Hashable = None

    kind = "iperf"
    planes = frozenset({BULK_PLANE})

    def __post_init__(self) -> None:
        if self.key is None:
            object.__setattr__(
                self, "key", f"iperf:{self.source}->{self.destination}")

    def install(self, engine) -> None:
        engine.start_flow(self.key, self.source, self.destination,
                          protocol=self.protocol,
                          congestion_control=self.congestion_control,
                          demand=self.demand, start_time=self.start)
        engine.sim.at(self.start + self.duration,
                      lambda: engine.stop_flow(self.key))

    def collect(self, engine, until: float) -> "IperfResult":
        from repro.apps.iperf import GOODPUT_FACTOR, IperfResult
        wire = engine.fluid.mean_throughput(
            self.key, self.start + self.warmup, self.start + self.duration)
        series = tuple((time, rate * GOODPUT_FACTOR)
                       for time, rate in engine.fluid.series(self.key))
        return IperfResult(mean_goodput=wire * GOODPUT_FACTOR,
                           mean_wire_rate=wire, duration=self.duration,
                           series=series)

    def metrics(self, engine, until: float, result) -> Metrics:
        summary = _throughput_summary(result.series, result.mean_goodput,
                                      workload=self.key)
        summary["wire_rate_mean"] = result.mean_wire_rate
        return Metrics(key=self.key, kind=self.kind,
                       throughput=tuple(result.series), summary=summary,
                       primary="throughput_mean")

    def horizon(self) -> float:
        return self.start + self.duration


@dataclass(frozen=True)
class PingWorkload(Workload):
    """Echo probing on the packet plane; result is the PingStats."""

    source: str
    destination: str
    count: int = 100
    interval: float = 0.010
    start: float = 0.0
    key: Hashable = None

    kind = "ping"
    planes = frozenset({PACKET_PLANE})

    def __post_init__(self) -> None:
        if self.key is None:
            object.__setattr__(
                self, "key", f"ping:{self.source}->{self.destination}")

    def install(self, engine) -> None:
        from repro.apps.ping import Pinger
        pinger = Pinger(engine.sim, engine.dataplane, self.source,
                        self.destination, count=self.count,
                        interval=self.interval)
        if self.start > 0:
            engine.sim.at(self.start, pinger.start)
        else:
            pinger.start()
        self._stash(engine, pinger)

    def collect(self, engine, until: float):
        return self._stashed(engine).stats

    def metrics(self, engine, until: float, result) -> Metrics:
        if getattr(result, "times", None):
            series = tuple(zip(result.times, result.rtts))
        else:
            # Stats without send stamps: space samples by the probe
            # interval (exact only when nothing was lost).
            series = tuple((self.start + index * self.interval, rtt)
                           for index, rtt in enumerate(result.rtts))
        summary = {}
        if series:
            summary = {f"latency_{name}": value
                       for name, value
                       in series_summary(series, workload=self.key).items()
                       if name in ("min", "max")}
        summary.update({"latency_mean": result.mean_rtt,
                        "latency_median": result.median_rtt,
                        "jitter": result.jitter,
                        "loss_rate": result.loss_rate})
        return Metrics(key=self.key, kind=self.kind, latency=series,
                       drops=result.lost, summary=summary,
                       primary="latency_mean")

    def horizon(self) -> float:
        return self.start + self.count * self.interval + 1.0


@dataclass(frozen=True)
class HttpLoadWorkload(Workload):
    """A wrk2-style closed-loop HTTP client against an embedded server.

    Installs an :class:`~repro.apps.http.HttpServer` on ``server`` and a
    :class:`~repro.apps.http.Wrk2Client` on ``source``; the result is the
    client's :class:`~repro.apps.http.HttpStats` (short-lived-flow
    throughput, the Figure 5/7 workload).
    """

    source: str
    server: str
    connections: int = 100
    start: float = 0.0
    stop: Optional[float] = None
    key: Hashable = None

    kind = "http"
    planes = frozenset({PACKET_PLANE})

    def __post_init__(self) -> None:
        if self.key is None:
            object.__setattr__(
                self, "key", f"http:{self.source}->{self.server}")

    def install(self, engine) -> None:
        from repro.apps import HttpServer, Wrk2Client
        server = HttpServer(engine.sim, engine.dataplane, self.server)
        client = Wrk2Client(engine.sim, engine.dataplane, self.source,
                            server, connections=self.connections,
                            start=self.start,
                            stop=(self.stop if self.stop is not None
                                  else float("inf")))
        self._stash(engine, client)

    def collect(self, engine, until: float):
        return self._stashed(engine).stats

    def _window(self, until: float) -> float:
        end = until if self.stop is None else min(self.stop, until)
        return max(end - self.start, 1e-9)

    def metrics(self, engine, until: float, result) -> Metrics:
        mean = result.throughput(self._window(until))
        return Metrics(key=self.key, kind=self.kind,
                       summary={"throughput_mean": mean,
                                "requests": float(result.completed)},
                       primary="throughput_mean")

    def horizon(self) -> float:
        return self.stop if self.stop is not None else 0.0


@dataclass(frozen=True)
class CurlSwarmWorkload(Workload):
    """Connection-per-request curl clients (the Figure 6 workload)."""

    sources: Tuple[str, ...]
    server: str
    key: Hashable = None

    kind = "curl"
    planes = frozenset({PACKET_PLANE})

    def __post_init__(self) -> None:
        object.__setattr__(self, "sources", tuple(self.sources))
        if self.key is None:
            object.__setattr__(self, "key", f"curl:{self.server}")

    def install(self, engine) -> None:
        from repro.apps import CurlSwarm, HttpServer
        server = HttpServer(engine.sim, engine.dataplane, self.server)
        swarm = CurlSwarm(engine.sim, engine.dataplane, list(self.sources),
                          server)
        self._stash(engine, swarm)

    def collect(self, engine, until: float):
        return self._stashed(engine).stats

    def metrics(self, engine, until: float, result) -> Metrics:
        mean = result.throughput(max(until, 1e-9))
        return Metrics(key=self.key, kind=self.kind,
                       summary={"throughput_mean": mean,
                                "requests": float(result.completed)},
                       primary="throughput_mean")


@dataclass(frozen=True)
class CustomWorkload(Workload):
    """An arbitrary application driven by caller-supplied callables.

    ``install_fn(system)`` may return state; ``collect_fn(system, until,
    state)`` turns it into the result.  The escape hatch for workloads the
    declarative vocabulary doesn't cover (e.g. the Figure 10 Cassandra
    cluster) while still flowing through the one backend lifecycle.
    """

    key: Hashable
    install_fn: Callable = None
    collect_fn: Callable = None
    needs: Tuple[str, ...] = (PACKET_PLANE,)
    duration: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "planes", frozenset(self.needs))

    def install(self, engine) -> None:
        self._stash(engine,
                    self.install_fn(engine) if self.install_fn else None)

    def collect(self, engine, until: float):
        state = self._stashed(engine)
        if self.collect_fn is None:
            return state
        return self.collect_fn(engine, until, state)

    def horizon(self) -> float:
        return self.duration


def flow(source: str, destination: str, *, rate: Optional[Number] = None,
         protocol: str = "tcp", congestion_control: str = "cubic",
         start: Number = 0.0, stop: Optional[Number] = None,
         key: Hashable = None) -> FlowWorkload:
    """A long-lived bulk flow; ``rate`` caps its demand (default: greedy)."""
    return FlowWorkload(source, destination,
                        demand=_GREEDY if rate is None else coerce_rate(rate),
                        protocol=protocol,
                        congestion_control=congestion_control,
                        start=coerce_time(start),
                        stop=None if stop is None else coerce_time(stop),
                        key=key)


def iperf(source: str, destination: str, *, duration: Number = 60.0,
          rate: Optional[Number] = None, protocol: str = "tcp",
          congestion_control: str = "cubic", warmup: Number = 2.0,
          start: Number = 0.0, key: Hashable = None) -> IperfWorkload:
    """An iperf3-like timed throughput measurement."""
    return IperfWorkload(source, destination,
                         duration=coerce_time(duration),
                         demand=_GREEDY if rate is None else coerce_rate(rate),
                         protocol=protocol,
                         congestion_control=congestion_control,
                         warmup=coerce_time(warmup),
                         start=coerce_time(start), key=key)


def ping(source: str, destination: str, *, count: int = 100,
         interval: Number = 0.010, start: Number = 0.0,
         key: Hashable = None) -> PingWorkload:
    """``count`` echo requests at ``interval``; collects RTT statistics."""
    return PingWorkload(source, destination, count=int(count),
                        interval=coerce_time(interval),
                        start=coerce_time(start), key=key)


def udp_blast(source: str, destination: str, rate: Number, *,
              start: Number = 0.0, stop: Optional[Number] = None,
              key: Hashable = None) -> FlowWorkload:
    """A constant-bit-rate UDP flood that never backs off (§3)."""
    return FlowWorkload(source, destination, demand=coerce_rate(rate),
                        protocol="udp", start=coerce_time(start),
                        stop=None if stop is None else coerce_time(stop),
                        key=key)


def http_load(source: str, server: str, *, connections: int = 100,
              start: Number = 0.0, stop: Optional[Number] = None,
              key: Hashable = None) -> HttpLoadWorkload:
    """A wrk2-style HTTP load phase (short-lived flows, Figures 5/7)."""
    return HttpLoadWorkload(source, server, connections=int(connections),
                            start=coerce_time(start),
                            stop=None if stop is None else coerce_time(stop),
                            key=key)


def curl_swarm(sources: Sequence[str], server: str, *,
               key: Hashable = None) -> CurlSwarmWorkload:
    """Connection-per-request curl clients against one server (Figure 6)."""
    return CurlSwarmWorkload(tuple(sources), server, key=key)


def custom(key: Hashable, install: Callable = None, *,
           collect: Callable = None, needs: Sequence[str] = (PACKET_PLANE,),
           duration: Number = 0.0) -> CustomWorkload:
    """An arbitrary workload: ``install(system) -> state`` then
    ``collect(system, until, state) -> result``."""
    return CustomWorkload(key=key, install_fn=install, collect_fn=collect,
                          needs=tuple(needs), duration=coerce_time(duration))
