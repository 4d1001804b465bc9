"""The ``ping`` kind: echo probing on the packet plane."""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Hashable

from repro.netstack.plane import PACKET_PLANE
from repro.scenario.results import Metrics, Series, series_summary
from repro.scenario.workloads import Number, Workload
from repro.units import coerce_time


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
    endpoints = ("source", "destination")
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
            series = Series.of(array("d", result.times),
                               array("d", result.rtts))
        else:
            # Stats without send stamps: space samples by the probe
            # interval (exact only when nothing was lost).
            series = Series((self.start + index * self.interval, rtt)
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


def ping(source: str, destination: str, *, count: int = 100,
         interval: Number = 0.010, start: Number = 0.0,
         key: Hashable = None) -> PingWorkload:
    """``count`` echo requests at ``interval``; collects RTT statistics."""
    return PingWorkload(source, destination, count=int(count),
                        interval=coerce_time(interval),
                        start=coerce_time(start), key=key)
