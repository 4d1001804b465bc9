"""The ``ycsb`` kind: Cassandra under a YCSB read/update mix."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Tuple

from repro.netstack.plane import PACKET_PLANE
from repro.scenario.workloads import Workload


def _mean(values) -> float:
    return sum(values) / len(values) if values else 0.0


@dataclass(frozen=True)
class YcsbWorkload(Workload):
    """Cassandra under a YCSB read/update mix (the Figure 10 workload).

    Installs a :class:`~repro.apps.cassandra.CassandraCluster` over
    ``replicas`` (RF 2, W 2, R 1, 2 ms per operation) and a
    :class:`~repro.apps.cassandra.YcsbClient` per ``clients`` entry,
    mapping its source to its coordinator.  The ``threads`` are dealt
    over the clients — client ``i`` of ``n`` runs ``threads // n + (i <
    threads % n)`` — and each draws from the system's ``ycsb:<source>``
    stream.  The result maps ``throughput`` (ops/s) and the mean
    ``latency``, ``read_latency`` and ``update_latency`` (s).
    """

    replicas: Tuple[str, ...]
    clients: Tuple[Tuple[str, str], ...]
    threads: int = 8
    key: Hashable = None

    kind = "ycsb"
    endpoints = ("replicas", "clients")
    planes = frozenset({PACKET_PLANE})

    def __post_init__(self) -> None:
        object.__setattr__(self, "replicas", tuple(self.replicas))
        object.__setattr__(self, "clients",
                           tuple(dict(self.clients).items()))
        if self.key is None:
            object.__setattr__(self, "key", "ycsb")

    def install(self, engine) -> None:
        from repro.apps import CassandraCluster, YcsbClient
        # The cluster's defaults are Figure 10's RF 2, W 2 and R 1.
        cluster = CassandraCluster(engine.sim, engine.dataplane,
                                   self.replicas, service_time=2e-3)
        share, extra = divmod(self.threads, max(len(self.clients), 1))
        self._stash(engine, [
            YcsbClient(engine.sim, engine.dataplane, source, cluster,
                       coordinator, threads=share + (index < extra),
                       rng=engine.rng.stream(f"ycsb:{source}"))
            for index, (source, coordinator) in enumerate(self.clients)])

    def collect(self, engine, until: float) -> dict:
        clients = self._stashed(engine)
        return {
            "throughput": sum(client.stats.ops_per_s(until)
                              for client in clients),
            "latency": _mean(sorted(latency for client in clients
                                    for latency in client.stats.latencies)),
            "read_latency": _mean([latency for client in clients
                                   for latency in client.reads.latencies]),
            "update_latency": _mean([latency for client in clients
                                     for latency in client.updates.latencies]),
        }
