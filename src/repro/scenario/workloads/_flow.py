"""The ``flow`` kind: a bulk flow on the fluid plane (and ``udp_blast``,
a rate-capped UDP one)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Optional

from repro.netstack.plane import BULK_PLANE
from repro.scenario.results import Metrics
from repro.scenario.workloads import Number, Workload, _throughput_summary
from repro.units import coerce_rate, coerce_time

_GREEDY = float("inf")   # a flow with no rate cap


@dataclass(frozen=True)
class FlowWorkload(Workload):
    """A bulk flow on the fluid plane; result is its mean throughput."""

    source: str
    destination: str
    demand: float = float("inf")
    protocol: str = "tcp"
    start: float = 0.0
    stop: Optional[float] = None
    key: Hashable = None

    kind = "flow"
    endpoints = ("source", "destination")
    planes = frozenset({BULK_PLANE})

    def __post_init__(self) -> None:
        if self.key is None:
            object.__setattr__(self, "key",
                               f"{self.source}->{self.destination}")

    def install(self, engine) -> None:
        engine.start_flow(self.key, self.source, self.destination,
                          protocol=self.protocol, demand=self.demand,
                          start_time=self.start)
        if self.stop is not None:
            engine.sim.at(self.stop,
                          lambda: engine.stop_flow(self.key))

    def collect(self, engine, until: float) -> float:
        end = until if self.stop is None else min(self.stop, until)
        return engine.fluid.mean_throughput(self.key, self.start, end)

    def metrics(self, engine, until: float, result) -> Metrics:
        series = engine.fluid.series(self.key)
        return Metrics(key=self.key, kind=self.kind, throughput=series,
                       summary=_throughput_summary(series, float(result),
                                                   workload=self.key),
                       primary="throughput_mean")

    def horizon(self) -> float:
        return self.stop if self.stop is not None else 0.0


def flow(source: str, destination: str, *, rate: Optional[Number] = None,
         protocol: str = "tcp", start: Number = 0.0,
         stop: Optional[Number] = None, key: Hashable = None) -> FlowWorkload:
    """A long-lived bulk flow; ``rate`` caps its demand (default: greedy)."""
    return FlowWorkload(source, destination,
                        demand=_GREEDY if rate is None else coerce_rate(rate),
                        protocol=protocol, start=coerce_time(start),
                        stop=None if stop is None else coerce_time(stop),
                        key=key)


def udp_blast(source: str, destination: str, rate: Number, *,
              start: Number = 0.0, stop: Optional[Number] = None,
              key: Hashable = None) -> FlowWorkload:
    """A constant-bit-rate UDP flood that never backs off (§3)."""
    return FlowWorkload(source, destination, demand=coerce_rate(rate),
                        protocol="udp", start=coerce_time(start),
                        stop=None if stop is None else coerce_time(stop),
                        key=key)
