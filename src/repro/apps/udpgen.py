"""A packet-level UDP constant-bit-rate generator (§3's UDP discussion).

"Unreliable transport protocols (i.e., UDP) ignore packet loss and simply
continue to send packets at the application sending rate."  This generator
does exactly that on the packet data plane: datagrams at a fixed rate,
no backoff, no retransmission.  The receiver-side statistics expose what
the emulation did to the stream — delivery rate, loss ratio, one-way
delay — which is how the congestion model's netem injection becomes
visible to an application that never looks at acknowledgements.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.netstack.packet import Packet
from repro.sim import Simulator

__all__ = ["UdpBlaster", "UdpStats"]

_DATAGRAM_BITS = 1400 * 8.0  # a typical MTU-safe UDP payload


@dataclass
class UdpStats:
    """Sender/receiver counters for one UDP stream."""

    sent: int = 0
    received: int = 0
    dropped: int = 0
    blocked: int = 0                   # back-pressured at the sender qdisc
    delays: List[float] = field(default_factory=list)

    @property
    def loss_rate(self) -> float:
        return self.dropped / self.sent if self.sent else 0.0

    @property
    def mean_delay(self) -> float:
        return sum(self.delays) / len(self.delays) if self.delays else 0.0

    def delivered_bits(self, datagram_bits: float = _DATAGRAM_BITS) -> float:
        return self.received * datagram_bits

    def delivery_rate(self, duration: float,
                      datagram_bits: float = _DATAGRAM_BITS) -> float:
        return self.delivered_bits(datagram_bits) / duration \
            if duration > 0 else 0.0


class UdpBlaster:
    """Sends datagrams at ``rate`` bits/s from ``source`` to ``destination``.

    The sender never reacts to drops; a datagram refused by the local
    qdisc (back-pressure) is simply counted and abandoned, like a
    non-blocking ``sendto`` returning ``EAGAIN``.
    """

    def __init__(self, sim: Simulator, plane, source: str, destination: str,
                 *, rate: float, datagram_bits: float = _DATAGRAM_BITS,
                 start: float = 0.0, stop: float = float("inf")) -> None:
        if rate <= 0:
            raise ValueError(f"rate must be positive: {rate}")
        self.sim = sim
        self.plane = plane
        self.source = source
        self.destination = destination
        self.datagram_bits = datagram_bits
        self.interval = datagram_bits / rate
        self.stop_time = stop
        self.stats = UdpStats()
        self.sim.at(max(start, sim.now), self._send_next)

    def _send_next(self) -> None:
        if self.sim.now >= self.stop_time:
            return
        self.stats.sent += 1
        datagram = Packet(self.source, self.destination, self.datagram_bits,
                          kind="udp", created=self.sim.now)
        self.plane.send(datagram, self._on_delivered, self._on_dropped,
                        self._on_blocked)
        self.sim.after(self.interval, self._send_next)

    def _on_delivered(self, datagram: Packet) -> None:
        self.stats.received += 1
        self.stats.delays.append(self.sim.now - datagram.created)

    def _on_dropped(self, _datagram: Packet) -> None:
        self.stats.dropped += 1

    def _on_blocked(self, _datagram: Packet, _retry_at: float) -> None:
        # Fire and forget: UDP does not wait for the queue to drain.
        self.stats.blocked += 1
        self.stats.dropped += 1
