"""Aeron-like metadata transport: shared memory intra-host, UDP inter-host.

One :class:`MediaDriver` runs per physical machine (§4.2).  Publications to
a subscriber on the same machine travel through shared memory and cost no
network bytes; publications to remote machines are encoded into UDP
datagrams, accounted against the sending and receiving machines' counters,
and delivered after the physical network delay.  These counters are what
the Figure 3/4 metadata-traffic benchmarks read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.metadata.encoding import (
    DATAGRAM_PAYLOAD_BYTES,
    MetadataMessage,
    decode_message,
    encode_message,
)
from repro.sim import Simulator

__all__ = ["MediaDriver", "UdpStats"]

# UDP + IP header cost per datagram, charged on the wire.
_UDP_HEADER_BYTES = 28


@dataclass
class UdpStats:
    """Per-machine metadata network accounting."""

    bytes_sent: int = 0
    bytes_received: int = 0
    datagrams_sent: int = 0
    datagrams_received: int = 0
    shared_memory_messages: int = 0

    def wire_bytes_sent(self) -> int:
        return self.bytes_sent + self.datagrams_sent * _UDP_HEADER_BYTES


class MediaDriver:
    """One per machine: routes metadata to local and remote subscribers."""

    def __init__(self, sim: Simulator, machine: str, *,
                 network_delay: float = 100e-6, wide_ids: bool = False) -> None:
        self.sim = sim
        self.machine = machine
        self.network_delay = network_delay
        self.wide_ids = wide_ids
        self.stats = UdpStats()
        self._local_subscribers: List[Callable[[MetadataMessage], None]] = []
        self._peers: Dict[str, "MediaDriver"] = {}
        # The peers in machine-name order, rebuilt by ``connect``.
        self._peer_order: Tuple["MediaDriver", ...] = ()
        # (message, payload bytes, decoded message) of the last wire image.
        self._last_wire: Optional[Tuple[MetadataMessage, int,
                                        MetadataMessage]] = None

    # ------------------------------------------------------------- topology
    def connect(self, other: "MediaDriver") -> None:
        """Make the two drivers mutually reachable over the physical net."""
        if other.machine == self.machine:
            raise ValueError("connect() is for distinct machines")
        for driver, peer in ((self, other), (other, self)):
            driver._peers[peer.machine] = peer
            driver._peer_order = tuple(driver._peers[machine]
                                       for machine in driver.peers())

    def subscribe(self, callback: Callable[[MetadataMessage], None]) -> None:
        """Register a local Emulation Manager/Core consumer."""
        self._local_subscribers.append(callback)

    def peers(self) -> List[str]:
        return sorted(self._peers)

    # ----------------------------------------------------------- publishing
    def publish(self, message: MetadataMessage) -> None:
        """Deliver to local subscribers (shared memory) and all peers (UDP)."""
        self.publish_local(message)
        self.publish_remote(message)

    def publish_local(self, message: MetadataMessage) -> None:
        self.stats.shared_memory_messages += 1
        for subscriber in self._local_subscribers:
            subscriber(message)

    def publish_remote(self, message: MetadataMessage) -> None:
        """Ship one UDP publication to every peer, in machine-name order.

        The wire image is built (and read back) at most once per
        publication, not once per peer, and bytes and datagrams are still
        accounted per peer.  All peers are reached by one delivery event,
        which hands each of them the message in machine-name order — what
        one event per peer would do: scheduled back to back for one
        instant, those would be consecutive in ``(time, priority, seq)``,
        and nothing could be dispatched between them.  The peers are the
        ones connected at send time; with none, nothing is scheduled.
        """
        self._ship(self._peer_order, message)

    def publish_to(self, machine: str, message: MetadataMessage) -> None:
        """Encode and ship one UDP publication to a specific peer."""
        peer = self._peers.get(machine)
        if peer is None:
            raise KeyError(f"{self.machine}: unknown peer machine {machine!r}")
        self._ship((peer,), message)

    def _ship(self, peers: Tuple["MediaDriver", ...],
              message: MetadataMessage) -> None:
        size, received = self._through_the_wire(message)
        if not peers:
            return
        datagrams = max(1, -(-size // DATAGRAM_PAYLOAD_BYTES))
        self.stats.bytes_sent += size * len(peers)
        self.stats.datagrams_sent += datagrams * len(peers)
        self.sim.after(self.network_delay, _deliver, peers, received, size,
                       datagrams, label="metadata-udp")

    def _through_the_wire(self, message: MetadataMessage):
        """(payload bytes, the message as a receiver decodes it).

        The round trip is not a formality: the wire format quantizes rates
        to Kb/s and range-checks every identifier.  Both messages are
        immutable, so every receiver can be handed the same decoded one —
        and a message equal to the previous one is handed the previous
        image: a converged manager publishes the same report every period,
        and its peers then see the very same flows again.
        """
        last = self._last_wire
        if last is not None and (last[0] is message or last[0] == message):
            return last[1], last[2]
        payload = encode_message(message, wide=self.wide_ids)
        received = decode_message(payload, sender=message.sender,
                                  wide=self.wide_ids)
        self._last_wire = (message, len(payload), received)
        return len(payload), received

    def _receive(self, received: MetadataMessage, size: int,
                 datagrams: int) -> None:
        self.stats.bytes_received += size
        self.stats.datagrams_received += datagrams
        for subscriber in self._local_subscribers:
            subscriber(received)


def _deliver(peers: Tuple[MediaDriver, ...], received: MetadataMessage,
             size: int, datagrams: int) -> None:
    """One publication arriving at each of ``peers``, in order."""
    for peer in peers:
        peer._receive(received, size, datagrams)
