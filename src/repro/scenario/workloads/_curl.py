"""The ``curl`` kind: connection-per-request curl clients."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Sequence, Tuple

from repro.netstack.plane import PACKET_PLANE
from repro.scenario.results import Metrics
from repro.scenario.workloads import Workload


@dataclass(frozen=True)
class CurlSwarmWorkload(Workload):
    """Connection-per-request curl clients (the Figure 6 workload)."""

    sources: Tuple[str, ...]
    server: str
    key: Hashable = None

    kind = "curl"
    endpoints = ("sources", "server")
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
        mean = result.bits_per_s(max(until, 1e-9))
        return Metrics(key=self.key, kind=self.kind,
                       summary={"throughput_mean": mean,
                                "requests": float(result.completed)},
                       primary="throughput_mean")


def curl_swarm(sources: Sequence[str], server: str, *,
               key: Hashable = None) -> CurlSwarmWorkload:
    """Connection-per-request curl clients against one server (Figure 6)."""
    return CurlSwarmWorkload(tuple(sources), server, key=key)
