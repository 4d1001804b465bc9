"""The ``http`` kind: a wrk2-style closed-loop HTTP client."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Optional

from repro.netstack.plane import PACKET_PLANE
from repro.scenario.results import Metrics
from repro.scenario.workloads import Number, Workload
from repro.units import coerce_time


@dataclass(frozen=True)
class HttpLoadWorkload(Workload):
    """A wrk2-style closed-loop HTTP client against an embedded server.

    Installs an :class:`~repro.apps.http.HttpServer` on ``server`` and a
    :class:`~repro.apps.http.Wrk2Client` on ``source``; the result is the
    client's :class:`~repro.apps.rpc.Latencies` (short-lived-flow
    throughput, the Figure 5/7 workload).
    """

    source: str
    server: str
    connections: int = 100
    start: float = 0.0
    stop: Optional[float] = None
    key: Hashable = None

    kind = "http"
    endpoints = ("source", "server")
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
        mean = result.bits_per_s(self._window(until))
        return Metrics(key=self.key, kind=self.kind,
                       summary={"throughput_mean": mean,
                                "requests": float(result.completed)},
                       primary="throughput_mean")

    def horizon(self) -> float:
        return self.stop if self.stop is not None else 0.0


def http_load(source: str, server: str, *, connections: int = 100,
              start: Number = 0.0, stop: Optional[Number] = None,
              key: Hashable = None) -> HttpLoadWorkload:
    """A wrk2-style HTTP load phase (short-lived flows, Figures 5/7)."""
    return HttpLoadWorkload(source, server, connections=int(connections),
                            start=coerce_time(start),
                            stop=None if stop is None else coerce_time(stop),
                            key=key)
