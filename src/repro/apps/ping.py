"""ICMP echo probing: RTT and jitter measurement (§5.1, §5.5).

A :class:`Pinger` sends echo requests over any packet data plane; the
destination side is implicit (echo replies are generated by the plane's
delivery callback, as the ICMP stack lives in the kernel on both ends).
Statistics match ``ping``'s reporting: RTT mean/min/max and jitter as the
standard deviation of RTT samples.
"""

from __future__ import annotations

import math
import statistics
from array import array
from dataclasses import dataclass, field
from functools import partial
from typing import Sequence

from repro.netstack.packet import Packet
from repro.sim import Simulator

__all__ = ["Pinger", "PingStats"]

_ICMP_SIZE_BITS = 64 * 8.0


@dataclass
class PingStats:
    """Aggregated echo statistics.

    ``mean_rtt`` and ``jitter`` exclude the first sample when more than one
    was collected — the first echo pays one-off resolution work on any real
    network (ARP, neighbour discovery, flow-table setup on SDN switches),
    and the paper's long ping runs amortize it to nothing.  ``rtts`` and
    ``times`` are ``array('d')`` columns, eight bytes a sample.
    """

    rtts: array = field(default_factory=partial(array, "d"))
    #: Send time of each successful echo, parallel to ``rtts``.
    times: array = field(default_factory=partial(array, "d"))
    sent: int = 0
    lost: int = 0

    @property
    def received(self) -> int:
        return len(self.rtts)

    def _steady_samples(self) -> Sequence[float]:
        return self.rtts[1:] if len(self.rtts) > 1 else self.rtts

    @property
    def mean_rtt(self) -> float:
        samples = self._steady_samples()
        return statistics.fmean(samples) if samples else math.nan

    @property
    def median_rtt(self) -> float:
        """Median RTT — robust to connection-setup and warmup transients."""
        samples = self._steady_samples()
        return statistics.median(samples) if samples else math.nan

    @property
    def jitter(self) -> float:
        """Standard deviation of RTT samples (the paper's jitter metric)."""
        samples = self._steady_samples()
        return statistics.stdev(samples) if len(samples) > 1 else 0.0

    @property
    def loss_rate(self) -> float:
        return self.lost / self.sent if self.sent else 0.0


class Pinger:
    """Sends ``count`` echo requests at ``interval`` and collects RTTs."""

    def __init__(self, sim: Simulator, plane, source: str, destination: str, *,
                 count: int = 100, interval: float = 0.010,
                 size_bits: float = _ICMP_SIZE_BITS) -> None:
        self.sim = sim
        self.plane = plane
        self.source = source
        self.destination = destination
        self.count = count
        self.interval = interval
        self.size_bits = size_bits
        self.stats = PingStats()
        self._next = 0

    def start(self, at: float = 0.0) -> "Pinger":
        self.sim.at(max(at, self.sim.now), self._send_next)
        return self

    def _send_next(self) -> None:
        if self._next >= self.count:
            return
        self._next += 1
        self.stats.sent += 1
        request = Packet(self.source, self.destination, self.size_bits,
                         kind="icmp-echo", created=self.sim.now)
        self.plane.send(request, self._on_request_delivered, self._on_lost)
        if self._next < self.count:
            self.sim.after(self.interval, self._send_next)

    def _on_request_delivered(self, request: Packet) -> None:
        reply = Packet(self.destination, self.source, self.size_bits,
                       kind="icmp-reply", created=request.created)
        self.plane.send(reply, self._on_reply, self._on_lost)

    def _on_reply(self, reply: Packet) -> None:
        self.stats.rtts.append(self.sim.now - reply.created)
        self.stats.times.append(reply.created)

    def _on_lost(self, _packet: Packet) -> None:
        self.stats.lost += 1
