"""The packet unit exchanged over the packet-level data planes."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

__all__ = ["Packet"]


@dataclass(slots=True)
class Packet:
    """One network packet (sizes in bits).

    ``kind`` tags the traffic type (``data``, ``icmp``, ``ack``, ``rpc``);
    ``payload`` carries opaque application data; ``created`` is stamped by
    the sender so receivers can measure one-way delay and RTT.
    """

    source: str
    destination: str
    size_bits: float
    kind: str = "data"
    payload: Any = None
    created: float = 0.0
    hops: int = 0

    def age(self, now: float) -> float:
        return now - self.created
