"""memcached-like in-memory KV store and a memtier-like benchmark client.

The §5.2 scalability experiment deploys one memcached server per emulated
region with three memtier clients each (two local, one remote), measuring
aggregate throughput as the emulation spreads over more physical hosts.

The server is an in-memory hash table behind a single service queue; the
client runs ``connections`` closed-loop pipelines issuing GET/SET in a
configurable ratio.  All traffic is real packets on the data plane, so
emulated WAN latency and bandwidth shaping apply.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from repro.apps.rpc import ClosedLoop, FifoServer, require_int
from repro.netstack.packet import Packet
from repro.sim import Simulator

__all__ = ["KvServer", "MemtierClient"]

_GET_REQUEST_BITS = 60 * 8.0
_SET_REQUEST_BITS = 1084 * 8.0   # key + 1 KB value
_GET_RESPONSE_BITS = 1054 * 8.0
_SET_RESPONSE_BITS = 30 * 8.0
_VALUE = b"x" * 1024
_SERVICE_TIME = 20e-6
# keyspace -> its key strings, built once and shared by every client.
_KEY_NAMES: Dict[int, Tuple[str, ...]] = {}


def _key_names(keyspace: int) -> Tuple[str, ...]:
    try:
        return _KEY_NAMES[keyspace]
    except KeyError:
        names = _KEY_NAMES[keyspace] = tuple(
            f"key-{index}" for index in range(keyspace))
        return names


class KvServer(FifoServer):
    """A single-queue key-value server.

    It is the one server that answers through ``plane.send_at``: nothing
    else sends from its container while a response waits for service.
    """

    def __init__(self, sim: Simulator, plane, name: str) -> None:
        super().__init__(sim, plane, name, _SERVICE_TIME)
        self.store: Dict[str, bytes] = {}

    def handle(self, request: Packet,
               on_response_delivered: Callable[[Packet], None],
               on_drop: Optional[Callable[[Packet], None]] = None) -> None:
        """Serve one request and send the response back over the plane."""
        operation, key = request.payload
        finish = self.finish(self.sim.now)
        if operation == "set":
            self.store[key] = _VALUE
            response_bits = _SET_RESPONSE_BITS
        else:
            _ = self.store.get(key)
            response_bits = _GET_RESPONSE_BITS
        response = Packet(self.name, request.source, response_bits,
                          "kv-response", request.payload, request.created)
        self.plane.send_at(finish, response, on_response_delivered, on_drop)


class MemtierClient(ClosedLoop):
    """Closed-loop GET/SET driver over ``connections`` pipelines."""

    _LOOPS = "connections"

    def __init__(self, sim: Simulator, plane, source: str, server: KvServer, *,
                 rng, connections: int = 1, set_fraction: float = 0.1,
                 keyspace: int = 1000) -> None:
        require_int("keyspace", keyspace, 1)
        if not 0.0 <= set_fraction <= 1.0:
            raise ValueError(
                f"set_fraction must be in [0, 1], got {set_fraction!r}")
        self.server = server
        self.set_fraction = set_fraction
        self.keyspace = keyspace
        self._keys = _key_names(keyspace)
        self._key_bits = keyspace.bit_length()
        self.rng = rng
        super().__init__(sim, plane, source, loops=connections)

    def _issue(self) -> None:
        now = self.sim.now
        if now >= self.stop_time:
            return
        rng = self.rng
        is_set = rng.random() < self.set_fraction
        # rng.randrange(keyspace) as CPython 3.10-3.13 runs it
        # (Random._randbelow_with_getrandbits): the same draws and the same
        # index, without randrange's three calls.
        index = rng.getrandbits(self._key_bits)
        while index >= self.keyspace:
            index = rng.getrandbits(self._key_bits)
        key = self._keys[index]
        operation = "set" if is_set else "get"
        size = _SET_REQUEST_BITS if is_set else _GET_REQUEST_BITS
        # Positional on purpose, here and in KvServer.handle: one Packet per
        # message, and three keywords double what building it costs.
        request = Packet(self.source, self.server.name, size, "kv-request",
                         (operation, key), now)
        self.plane.send(request, self._on_request_delivered, self._retry)

    def _on_request_delivered(self, request: Packet) -> None:
        self.server.handle(request, self._on_response, self._retry)

    def _on_response(self, response: Packet) -> None:
        # Latencies.record, inlined: this runs once per memcached op.
        stats = self.stats
        stats.completed += 1
        stats.latencies.append(self.sim.now - response.created)
        self._issue()
