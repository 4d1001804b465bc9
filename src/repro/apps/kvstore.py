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

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.netstack.packet import Packet
from repro.sim import Simulator

__all__ = ["KvServer", "MemtierClient", "KvStats"]

_GET_REQUEST_BITS = 60 * 8.0
_SET_REQUEST_BITS = 1084 * 8.0   # key + 1 KB value
_GET_RESPONSE_BITS = 1054 * 8.0
_SET_RESPONSE_BITS = 30 * 8.0
_VALUE = b"x" * 1024
# keyspace -> its key strings, built once and shared by every client.
_KEY_NAMES: Dict[int, Tuple[str, ...]] = {}


def _key_names(keyspace: int) -> Tuple[str, ...]:
    try:
        return _KEY_NAMES[keyspace]
    except KeyError:
        names = _KEY_NAMES[keyspace] = tuple(
            f"key-{index}" for index in range(keyspace))
        return names


class KvServer:
    """A single-queue key-value server."""

    def __init__(self, sim: Simulator, plane, name: str, *,
                 service_time: float = 20e-6) -> None:
        self.sim = sim
        self.plane = plane
        self.name = name
        self.service_time = service_time
        self.store: Dict[str, bytes] = {}
        self._horizon = 0.0
        self.operations = 0

    def handle(self, request: Packet,
               on_response_delivered: Callable[[Packet], None],
               on_drop: Optional[Callable[[Packet], None]] = None) -> None:
        """Serve one request and send the response back over the plane."""
        operation, key = request.payload
        now = self.sim.now
        start = now if now > self._horizon else self._horizon
        self._horizon = horizon = start + self.service_time
        self.operations += 1
        if operation == "set":
            self.store[key] = _VALUE
            response_bits = _SET_RESPONSE_BITS
        else:
            _ = self.store.get(key)
            response_bits = _GET_RESPONSE_BITS
        response = Packet(self.name, request.source, response_bits,
                          "kv-response", request.payload, request.created)
        self.plane.send_at(horizon, response, on_response_delivered, on_drop)


@dataclass
class KvStats:
    completed: int = 0
    latencies: List[float] = field(default_factory=list)

    def throughput(self, duration: float) -> float:
        """Operations per second."""
        return self.completed / duration if duration > 0 else 0.0


class MemtierClient:
    """Closed-loop GET/SET driver over ``connections`` pipelines."""

    def __init__(self, sim: Simulator, plane, source: str, server: KvServer, *,
                 connections: int = 1, set_fraction: float = 0.1,
                 keyspace: int = 1000, rng=None,
                 start: float = 0.0, stop: float = float("inf"),
                 think_time: float = 0.0) -> None:
        if isinstance(keyspace, bool) or not isinstance(keyspace, int) \
                or keyspace < 1:
            raise ValueError(
                f"keyspace must be a positive int, got {keyspace!r}")
        if not 0.0 <= set_fraction <= 1.0:
            raise ValueError(
                f"set_fraction must be in [0, 1], got {set_fraction!r}")
        if connections < 0:
            raise ValueError(
                f"connections must be >= 0, got {connections!r}")
        self.sim = sim
        self.plane = plane
        self.source = source
        self.server = server
        self.set_fraction = set_fraction
        self.keyspace = keyspace
        self._keys = _key_names(keyspace)
        self._key_bits = keyspace.bit_length()
        self.rng = rng
        self.stop_time = stop
        self.think_time = think_time
        self.stats = KvStats()
        for _ in range(connections):
            self.sim.at(max(start, sim.now), self._issue)

    def _issue(self) -> None:
        now = self.sim.now
        if now >= self.stop_time:
            return
        rng = self.rng
        if rng is None:
            is_set = 0.5 < self.set_fraction
            key = self._keys[0]
        else:
            is_set = rng.random() < self.set_fraction
            # rng.randrange(keyspace) as CPython 3.10-3.13 runs it
            # (Random._randbelow_with_getrandbits): the same draws and the
            # same index, without randrange's three calls.
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
        self.plane.send(request, self._on_request_delivered, self._on_drop)

    def _on_request_delivered(self, request: Packet) -> None:
        self.server.handle(request, self._on_response, self._on_drop)

    def _on_response(self, response: Packet) -> None:
        self.stats.completed += 1
        self.stats.latencies.append(self.sim.now - response.created)
        if self.think_time > 0:
            self.sim.after(self.think_time, self._issue)
        else:
            self._issue()

    def _on_drop(self, _packet: Packet) -> None:
        # Lost request or response: client times out and retries.
        self.sim.after(0.050, self._issue)
