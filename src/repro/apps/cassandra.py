"""A Cassandra-like quorum-replicated store and a YCSB-like driver (§5.6).

The paper's deployment: 4 replicas in Frankfurt, 4 in Sydney, replication
factor 2, YCSB in Frankfurt issuing a 50/50 read/update mix with
``R = ONE`` and ``W = QUORUM`` — every update must be acknowledged by a
replica in Sydney, which is what pins the update latency to the
inter-region round trip, while reads complete locally.

Implementation: each key maps to ``replication_factor`` replicas chosen
ring-style across the node list.  A coordinator (the replica the client
contacts, always its nearest) fans out to the key's replicas and answers
after ``R`` or ``W`` acknowledgements.  Replicas are single service queues;
all messages are packets on the data plane.
"""

from __future__ import annotations

from os.path import commonprefix
from typing import Callable, List, Sequence

from repro.apps.rpc import ClosedLoop, FifoServer, Latencies, Quorum, \
    require_int
from repro.netstack.packet import Packet
from repro.sim import Simulator

__all__ = ["CassandraCluster", "YcsbClient"]

_READ_REQUEST_BITS = 120 * 8.0
_UPDATE_REQUEST_BITS = 1150 * 8.0
_REPLICA_MESSAGE_BITS = 1150 * 8.0
_ACK_BITS = 60 * 8.0
_RESPONSE_BITS = 1100 * 8.0


class CassandraCluster:
    """The replica set plus coordinator logic.

    Every replica is a :class:`~repro.apps.rpc.FifoServer` that answers
    with ``sim.at`` then a send, not ``plane.send_at``: each replica also
    coordinates, so its container sends outside its queue.
    """

    def __init__(self, sim: Simulator, plane, replicas: Sequence[str], *,
                 replication_factor: int = 2,
                 write_consistency: int = 2, read_consistency: int = 1,
                 service_time: float = 250e-6) -> None:
        if replication_factor > len(replicas):
            raise ValueError("replication factor exceeds replica count")
        if write_consistency > replication_factor or \
                read_consistency > replication_factor:
            raise ValueError("consistency level exceeds replication factor")
        if write_consistency < 1 or read_consistency < 1:
            raise ValueError("consistency level must be at least 1")
        self.sim = sim
        self.plane = plane
        self.replica_names = list(replicas)
        self.replication_factor = replication_factor
        self.write_consistency = write_consistency
        self.read_consistency = read_consistency
        self.replicas = {name: FifoServer(sim, plane, name, service_time)
                         for name in replicas}

    # ------------------------------------------------------------- placement
    def replicas_for(self, key_hash: int) -> List[str]:
        """Ring placement: RF consecutive nodes starting at the key's token.

        The node list interleaves regions (as the paper's NetworkTopology
        strategy does), so a replica set spans both datacenters.
        """
        start = key_hash % len(self.replica_names)
        return [self.replica_names[(start + offset) % len(self.replica_names)]
                for offset in range(self.replication_factor)]

    # ----------------------------------------------------------- coordination
    def execute(self, coordinator: str, operation: str, key_hash: int,
                created: float, on_done: Callable[[float], None]) -> None:
        """Run one read/update at ``coordinator``; ``on_done(latency)``."""
        owners = self.replicas_for(key_hash)
        needed = (self.write_consistency if operation == "update"
                  else self.read_consistency)
        if operation == "read":
            # R = ONE: the coordinator asks the nearest owner (itself when
            # it owns the key) and replies on first answer.  Nearness is
            # the stand-in for Cassandra's snitch: topology generators name
            # containers ``<prefix>-<region>-<index>``, so the longest
            # shared prefix picks a same-region replica when one exists.
            if coordinator in owners:
                owners = [coordinator]
            else:
                owners = [max(owners, key=lambda owner: len(
                    commonprefix((owner, coordinator))))]
            needed = 1
        acks = Quorum(needed, lambda: on_done(self.sim.now - created))

        for owner in owners:
            if owner == coordinator:
                self.sim.at(self.replicas[owner].finish(self.sim.now),
                            acks.vote)
                continue
            message = Packet(coordinator, owner, _REPLICA_MESSAGE_BITS
                             if operation == "update" else _READ_REQUEST_BITS,
                             kind="cassandra-replicate", created=created)

            def at_owner(packet: Packet, owner=owner) -> None:
                ack = Packet(owner, coordinator, _ACK_BITS,
                             kind="cassandra-ack", created=created)
                self.sim.at(self.replicas[owner].finish(self.sim.now),
                            self.plane.send, ack, acks.vote)

            self.plane.send(message, at_owner)


class YcsbClient(ClosedLoop):
    """Closed-loop YCSB driver: ``threads`` workers, 50/50 read/update.

    ``stats`` records every operation; ``reads`` and ``updates`` split it.
    """

    backoff = 0.100
    _LOOPS = "threads"

    def __init__(self, sim: Simulator, plane, source: str,
                 cluster: CassandraCluster, coordinator: str, *, rng,
                 threads: int = 8, read_fraction: float = 0.5,
                 keyspace: int = 10_000) -> None:
        require_int("keyspace", keyspace, 1)
        if not 0.0 <= read_fraction <= 1.0:
            raise ValueError(
                f"read_fraction must be in [0, 1], got {read_fraction!r}")
        super().__init__(sim, plane, source, loops=threads)
        self.cluster = cluster
        self.coordinator = coordinator
        self.read_fraction = read_fraction
        self.keyspace = keyspace
        self.rng = rng
        self.reads = Latencies()
        self.updates = Latencies()

    def _issue(self) -> None:
        now = self.sim.now
        if now >= self.stop_time:
            return
        rng = self.rng
        is_read = rng.random() < self.read_fraction
        key_hash = rng.randrange(self.keyspace)
        operation = "read" if is_read else "update"
        request = Packet(
            self.source, self.coordinator,
            _READ_REQUEST_BITS if is_read else _UPDATE_REQUEST_BITS,
            "ycsb-request", (operation, key_hash), now)
        self.plane.send(request, self._at_coordinator, self._retry)

    def _at_coordinator(self, request: Packet) -> None:
        operation, key_hash = request.payload
        created = request.created
        self.cluster.execute(
            self.coordinator, operation, key_hash, created,
            lambda _latency: self._respond(operation, created))

    def _respond(self, operation: str, created: float) -> None:
        response = Packet(self.coordinator, self.source, _RESPONSE_BITS,
                          "ycsb-response", operation, created)
        self.plane.send(response, self._complete, self._retry)

    def _complete(self, response: Packet) -> None:
        latency = self.sim.now - response.created
        self.stats.record(latency)
        split = self.reads if response.payload == "read" else self.updates
        split.record(latency)
        self._issue()
