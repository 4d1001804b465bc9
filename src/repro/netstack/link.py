"""A physical packet link: serialization, propagation, queueing, tail drop.

Unlike the htb qdisc (which back-pressures, see :mod:`repro.tc.htb`), a
router/switch egress port *drops* packets once its buffer fills — the
behavioural difference §3 "Congestion" revolves around.
"""

from __future__ import annotations

import random
from typing import Callable, Optional  # noqa: F401 (Callable in annotations)

from repro.netstack.packet import Packet
from repro.sim import Simulator
from repro.topology.model import LinkProperties

__all__ = ["PacketLink"]


class PacketLink:
    """One unidirectional link with a finite FIFO output buffer."""

    def __init__(self, sim: Simulator, properties: LinkProperties, *,
                 buffer_bits: float = 1500 * 8.0 * 100,
                 rng: Optional[random.Random] = None,
                 name: str = "", link_id: int = -1) -> None:
        self.sim = sim
        self.properties = properties
        self.buffer_bits = buffer_bits
        self.rng = rng
        self.name = name
        self.link_id = link_id
        self._horizon = 0.0  # when the transmitter frees up
        self.packets_sent = 0
        self.packets_dropped = 0
        self.bits_sent = 0.0
        # Bulk (fluid-plane) traffic currently occupying a wire, bits/s by
        # link id, looked up with this link's ``link_id``; packets
        # serialize into what is left.  The packet aggregate keeps at least
        # half the wire — the fair equilibrium against an equally greedy
        # bulk aggregate (mirrors GroundTruthConstraints).
        self.background_load: Optional[Callable[[int], float]] = None

    def effective_bandwidth(self) -> float:
        bandwidth = self.properties.bandwidth
        if bandwidth == float("inf") or self.background_load is None:
            return bandwidth
        occupied = self.background_load(self.link_id)
        return max(bandwidth - occupied, bandwidth / 2.0)

    def _sample_delay(self) -> float:
        properties = self.properties
        if properties.jitter <= 0.0:
            return properties.latency
        rng = self.rng or random
        if properties.jitter_distribution == "uniform":
            half_width = properties.jitter * (3.0 ** 0.5)
            noise = rng.uniform(-half_width, half_width)
        else:
            noise = rng.gauss(0.0, properties.jitter)
        return max(properties.latency * 0.5, properties.latency + noise)

    def transmit(self, packet: Packet,
                 deliver: Callable[[Packet], None]) -> bool:
        """Enqueue ``packet``; schedules ``deliver`` at arrival time.

        Returns ``False`` when the packet is dropped (buffer overflow or
        random link loss), ``True`` when delivery was scheduled.
        """
        now = self.sim.now
        # One lookup of the bulk load per packet: nothing moves it before
        # this returns.
        bandwidth = self.effective_bandwidth()
        if bandwidth != float("inf") and \
                max(0.0, (self._horizon - now) * bandwidth) \
                + packet.size_bits > self.buffer_bits:
            self.packets_dropped += 1
            return False
        loss = self.properties.loss
        if loss > 0.0 and (self.rng or random).random() < loss:
            self.packets_dropped += 1
            return False
        if bandwidth == float("inf"):
            finish = now
        else:
            start = max(now, self._horizon)
            finish = start + packet.size_bits / bandwidth
            self._horizon = finish
        arrival = finish + self._sample_delay()
        self.packets_sent += 1
        self.bits_sent += packet.size_bits
        packet.hops += 1
        self.sim.at(arrival, deliver, packet)
        return True
