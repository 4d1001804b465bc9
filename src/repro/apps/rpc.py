"""One request/response substrate under the paper's applications.

memcached/memtier (§5.2), HTTP with wrk2 and curl (§5.3), BFT-SMaRt/Wheat
and Cassandra/YCSB (§5.6) are message patterns over four pieces, as ns-2
keeps traffic applications apart from the transport under them:

* :class:`FifoServer` — one service queue, served in arrival order;
* :class:`ClosedLoop` — ``loops`` clients that each issue a request, wait
  for its answer and issue the next, and resend a loss after ``backoff``;
* :class:`Latencies` — what a client measured;
* :class:`Quorum` — count votes and act once, on the ``needed``-th.

The server only says *when* a request is served: the application decides
how the answer travels (``plane.send_at`` for memcached, ``sim.at`` then
a send for the others — see ``docs/api.md``, "Applications").
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

from repro.netstack.packet import Packet
from repro.sim import Simulator

__all__ = ["FifoServer", "ClosedLoop", "Latencies", "Quorum", "require_int"]


def require_int(name: str, value, minimum: int) -> None:
    """Raise ``ValueError`` unless ``value`` is an int (not a bool) of at
    least ``minimum``: an application's counts arrive from user code."""
    if isinstance(value, bool) or not isinstance(value, int) \
            or value < minimum:
        raise ValueError(f"{name} must be an int >= {minimum}, got {value!r}")


class FifoServer:
    """A single-threaded server: requests are served one at a time, in
    arrival order, ``service_time`` seconds each."""

    def __init__(self, sim: Simulator, plane, name: str,
                 service_time: float) -> None:
        self.sim = sim
        self.plane = plane
        self.name = name
        self.service_time = service_time
        self._horizon = 0.0
        self.operations = 0

    def finish(self, now: float) -> float:
        """Queue one request arriving at ``now``; when its service ends."""
        start = now if now > self._horizon else self._horizon
        self._horizon = horizon = start + self.service_time
        self.operations += 1
        return horizon


@dataclass
class Latencies:
    """One client's record: completed operations, their latencies (s, an
    ``array('d')``: eight bytes an operation) and the payload bits they
    brought back."""

    completed: int = 0
    latencies: array = field(default_factory=partial(array, "d"))
    bits_received: float = 0.0

    def record(self, latency: float, bits: float = 0.0) -> None:
        self.completed += 1
        self.latencies.append(latency)
        self.bits_received += bits

    def ops_per_s(self, duration: float) -> float:
        return self.completed / duration if duration > 0 else 0.0

    def bits_per_s(self, duration: float) -> float:
        return self.bits_received / duration if duration > 0 else 0.0

    def percentile(self, fraction: float) -> float:
        """The latency at ``fraction`` of the sorted record (nearest rank,
        rounded down); NaN when nothing completed."""
        if not self.latencies:
            return float("nan")
        ordered = sorted(self.latencies)
        return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


class ClosedLoop:
    """``loops`` closed-loop clients on ``source``, issuing from
    ``max(start, now)`` until ``stop``.

    A subclass writes ``_issue`` (send one request, or nothing once
    ``stop_time`` is reached) and records each answer in ``stats`` before
    issuing again; ``_retry`` is its ``on_drop``.
    """

    backoff = 0.050     # seconds a client waits before resending a loss
    _LOOPS = "loops"    # what the subclass calls them, in its errors

    def __init__(self, sim: Simulator, plane, source: str, *, loops: int,
                 start: float = 0.0, stop: float = float("inf")) -> None:
        require_int(self._LOOPS, loops, 0)
        self.sim = sim
        self.plane = plane
        self.source = source
        self.stop_time = stop
        self.stats = Latencies()
        for _ in range(loops):
            sim.at(max(start, sim.now), self._issue)

    def _issue(self) -> None:
        raise NotImplementedError

    def _retry(self, _lost: Packet = None) -> None:
        self.sim.after(self.backoff, self._issue)


class Quorum:
    """Call ``on_quorum()`` once, on the ``needed``-th :meth:`vote`."""

    __slots__ = ("needed", "on_quorum", "votes")

    def __init__(self, needed: int, on_quorum: Callable[[], None]) -> None:
        self.needed = needed
        self.on_quorum = on_quorum
        self.votes = 0

    def vote(self, _message: Packet = None) -> None:
        self.votes += 1
        if self.votes == self.needed:
            self.on_quorum()
