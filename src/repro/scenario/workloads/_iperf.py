"""The ``iperf`` kind: a timed TCP flow reported as goodput."""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Hashable

from repro.netstack.plane import BULK_PLANE
from repro.scenario.results import Metrics, Series
from repro.scenario.workloads import Number, Workload, _throughput_summary
from repro.units import coerce_time


@dataclass(frozen=True)
class IperfWorkload(Workload):
    """An iperf3-like measurement: a timed flow reported as goodput."""

    source: str
    destination: str
    duration: float = 60.0
    congestion_control: str = "cubic"
    warmup: float = 2.0
    start: float = 0.0
    key: Hashable = None

    kind = "iperf"
    endpoints = ("source", "destination")
    planes = frozenset({BULK_PLANE})

    def __post_init__(self) -> None:
        if self.key is None:
            object.__setattr__(
                self, "key", f"iperf:{self.source}->{self.destination}")

    def install(self, engine) -> None:
        engine.start_flow(self.key, self.source, self.destination,
                          congestion_control=self.congestion_control,
                          start_time=self.start)
        engine.sim.at(self.start + self.duration,
                      lambda: engine.stop_flow(self.key))

    def collect(self, engine, until: float) -> "IperfResult":
        from repro.apps.iperf import GOODPUT_FACTOR, IperfResult
        series = engine.fluid.series(self.key)
        wire = series.mean(self.start + self.warmup,
                           self.start + self.duration)
        goodput = array("d", (rate * GOODPUT_FACTOR
                              for rate in series.values))
        return IperfResult(mean_goodput=wire * GOODPUT_FACTOR,
                           mean_wire_rate=wire, duration=self.duration,
                           series=Series.of(series.times, goodput))

    def metrics(self, engine, until: float, result) -> Metrics:
        summary = _throughput_summary(result.series, result.mean_goodput,
                                      workload=self.key)
        summary["wire_rate_mean"] = result.mean_wire_rate
        return Metrics(key=self.key, kind=self.kind,
                       throughput=result.series, summary=summary,
                       primary="throughput_mean")

    def horizon(self) -> float:
        return self.start + self.duration


def iperf(source: str, destination: str, *, duration: Number = 60.0,
          congestion_control: str = "cubic", warmup: Number = 2.0,
          start: Number = 0.0, key: Hashable = None) -> IperfWorkload:
    """An iperf3-like timed TCP throughput measurement."""
    return IperfWorkload(source, destination,
                         duration=coerce_time(duration),
                         congestion_control=congestion_control,
                         warmup=coerce_time(warmup),
                         start=coerce_time(start), key=key)
