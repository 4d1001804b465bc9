"""BFT-SMaRt and Wheat state-machine replication message patterns (§5.6).

Figure 9 reproduces the experiment of [78]: one replica and one client per
EC2 region (Virginia, Oregon, Ireland, São Paulo, Sydney) running a
replicated counter; the metric is per-client request latency (50th/90th
percentile).  Latency is entirely message-pattern-driven:

* **BFT-SMaRt** (n = 4, f = 1, leader in Virginia): client sends to the
  leader; the leader runs the three-phase BFT ordering (PROPOSE, WRITE,
  ACCEPT — two quorum round trips among replicas, quorum = ⌈(n+f+1)/2⌉ = 3);
  every replica then replies to the client, which waits for f+1 = 2 matching
  replies.
* **Wheat** (n = 5 with the same fault threshold, weighted votes): the
  vote assignment lets a quorum form from the *fastest* replicas
  (Wmax-weighted), cutting one round of waiting on the slow quorum path —
  we model it as quorums of the 2 fastest of 5 with double-weighted safe
  majority, plus the tentative-execution reply (client waits for the
  weighted quorum of replies directly).

All messages are packets over the data plane, so emulated inter-region
latency and jitter drive the distributions exactly as on EC2.
"""

from __future__ import annotations

from typing import Callable, Dict, Sequence

from repro.apps.rpc import Latencies, Quorum, require_int
from repro.netstack.packet import Packet
from repro.sim import Simulator

__all__ = ["SmrDeployment"]

_REQUEST_BITS = 300 * 8.0
_ORDER_BITS = 400 * 8.0
_REPLY_BITS = 150 * 8.0
_EXECUTION_TIME = 50e-6   # seconds the leader spends on its own share


class SmrDeployment:
    """One replicated-counter deployment (protocol = 'bftsmart' | 'wheat');
    the leader is the first replica."""

    def __init__(self, sim: Simulator, plane, replicas: Sequence[str], *,
                 protocol: str = "bftsmart") -> None:
        if protocol not in ("bftsmart", "wheat"):
            raise ValueError(f"unknown SMR protocol {protocol!r}")
        self.sim = sim
        self.plane = plane
        self.replicas = list(replicas)
        self.protocol = protocol
        self.leader = self.replicas[0]
        self.stats_by_client: Dict[str, Latencies] = {}

    # ----------------------------------------------------------- client side
    def run_client(self, client: str, *, operations: int = 100,
                   start: float = 0.0) -> Latencies:
        """A closed-loop client issuing ``operations`` counter increments."""
        require_int("operations", operations, 0)
        stats = self.stats_by_client.setdefault(client, Latencies())
        remaining = operations

        def issue() -> None:
            nonlocal remaining
            if remaining > 0:
                remaining -= 1
                self._invoke(client, self.sim.now, done)

        def done(latency: float) -> None:
            stats.record(latency)
            issue()

        self.sim.at(max(start, self.sim.now), issue)
        return stats

    def _invoke(self, client: str, created: float,
                on_done: Callable[[float], None]) -> None:
        """Client -> leader, the protocol's ordering, replicas -> client;
        the client waits for 2 replies (f + 1 for BFT-SMaRt, Wheat's
        weighted quorum of the two best-connected replicas)."""
        replies = Quorum(2, lambda: on_done(self.sim.now - created))

        def reply(replica: str) -> None:
            self.plane.send(Packet(replica, client, _REPLY_BITS,
                                   kind="smr-reply", created=created),
                            replies.vote)

        if self.protocol == "wheat":
            # Tentative execution: each replica replies as soon as the
            # leader's ORDER reaches it.
            first, then = "smr-order", reply
        else:
            # PROPOSE to all; every replica WRITEs back to the leader, and
            # a write quorum of ceil((n + f + 1) / 2), f = 1, ACCEPTs.
            n = len(self.replicas)
            writes = Quorum(min(n, -(-(n + 2) // 2)),
                            lambda: self._to_replicas("smr-accept", created,
                                                      reply))

            def write(replica: str) -> None:
                if replica == self.leader:
                    writes.vote()
                else:
                    self.plane.send(Packet(replica, self.leader, _ORDER_BITS,
                                           kind="smr-write", created=created),
                                    writes.vote)

            first, then = "smr-propose", write
        request = Packet(client, self.leader, _REQUEST_BITS,
                         kind="smr-request", created=created)
        self.plane.send(request,
                        lambda _request: self._to_replicas(first, created,
                                                           then))

    def _to_replicas(self, kind: str, created: float,
                     then: Callable[[str], None]) -> None:
        """The leader's fan-out: ``then(replica)`` once ``kind`` reaches
        each replica, after ``_EXECUTION_TIME`` on the leader itself."""
        for replica in self.replicas:
            if replica == self.leader:
                self.sim.after(_EXECUTION_TIME, then, replica)
            else:
                self.plane.send(Packet(self.leader, replica, _ORDER_BITS,
                                       kind=kind, created=created),
                                lambda _message, replica=replica:
                                then(replica))
