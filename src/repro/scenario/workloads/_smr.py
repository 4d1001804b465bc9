"""The ``smr`` kind: a replicated counter under BFT-SMaRt or Wheat."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Tuple

from repro.netstack.plane import PACKET_PLANE
from repro.scenario.workloads import Workload


@dataclass(frozen=True)
class SmrWorkload(Workload):
    """A replicated counter under BFT-SMaRt or Wheat (the Figure 9
    workload).

    Installs one :class:`~repro.apps.smr.SmrDeployment` over ``replicas``
    (the leader is ``replicas[0]``) and a client issuing ``operations``
    increments on each source; the result maps ``<source>_p50``,
    ``<source>_p90`` and ``<source>_completed`` per client.
    """

    replicas: Tuple[str, ...]
    sources: Tuple[str, ...]
    protocol: str = "bftsmart"
    operations: int = 100
    key: Hashable = None

    kind = "smr"
    endpoints = ("replicas", "sources")
    planes = frozenset({PACKET_PLANE})

    def __post_init__(self) -> None:
        object.__setattr__(self, "replicas", tuple(self.replicas))
        object.__setattr__(self, "sources", tuple(self.sources))
        if self.key is None:
            object.__setattr__(self, "key", f"smr:{self.protocol}")

    def install(self, engine) -> None:
        from repro.apps import SmrDeployment
        deployment = SmrDeployment(engine.sim, engine.dataplane,
                                   self.replicas, protocol=self.protocol)
        self._stash(engine, [
            deployment.run_client(source, operations=self.operations)
            for source in self.sources])

    def collect(self, engine, until: float) -> dict:
        summary = {}
        for source, stats in zip(self.sources, self._stashed(engine)):
            summary[f"{source}_p50"] = stats.percentile(0.5)
            summary[f"{source}_p90"] = stats.percentile(0.9)
            summary[f"{source}_completed"] = len(stats.latencies)
        return summary
