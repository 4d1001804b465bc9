"""The ``memtier`` kind: memcached under memtier clients."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Tuple

from repro.netstack.plane import PACKET_PLANE
from repro.scenario.results import Metrics
from repro.scenario.workloads import Workload


@dataclass(frozen=True)
class MemtierWorkload(Workload):
    """memcached with memtier clients (the Figure 4 workload).

    Installs a :class:`~repro.apps.kvstore.KvServer` on ``server`` and, per
    source, a :class:`~repro.apps.kvstore.MemtierClient` with
    ``connections`` pipelines drawing from the system's
    ``memtier:<source>`` stream; the result is the clients' aggregate
    ops/s.
    """

    server: str
    sources: Tuple[str, ...]
    connections: int = 1
    key: Hashable = None

    kind = "memtier"
    endpoints = ("server", "sources")
    planes = frozenset({PACKET_PLANE})

    def __post_init__(self) -> None:
        object.__setattr__(self, "sources", tuple(self.sources))
        if self.key is None:
            object.__setattr__(self, "key", f"memtier:{self.server}")

    def install(self, engine) -> None:
        from repro.apps import KvServer, MemtierClient
        server = KvServer(engine.sim, engine.dataplane, self.server)
        self._stash(engine, [
            MemtierClient(engine.sim, engine.dataplane, source, server,
                          connections=self.connections,
                          rng=engine.rng.stream(f"memtier:{source}"))
            for source in self.sources])

    def collect(self, engine, until: float) -> float:
        return sum(client.stats.ops_per_s(until)
                   for client in self._stashed(engine))

    def metrics(self, engine, until: float, result) -> Metrics:
        return Metrics(key=self.key, kind=self.kind,
                       summary={"ops_per_s": result}, primary="ops_per_s")
