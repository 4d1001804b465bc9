"""The Kollaps data plane: per-sender TCAL shaping, end-to-end delivery.

A packet leaving a container passes through that container's TCAL chain
(netem: latency + jitter + loss, then htb: bandwidth) and is then handed
directly to the destination container — no intermediate network elements
exist (§1, Figure 1 right).  A small *infrastructure delay* models the real
deployment's container networking and, for containers on different physical
machines, the cluster switch; the paper measures exactly these two effects
as Kollaps's residual error in Table 4.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, Optional, Tuple

from repro.netstack.packet import Packet
from repro.sim import Simulator
from repro.tc.htb import BackPressure
from repro.tc.tcal import Tcal

__all__ = ["KollapsDataPlane"]


class KollapsDataPlane:
    """Collapsed-topology packet delivery driven by per-container TCALs."""

    def __init__(self, sim: Simulator, *,
                 placement: Optional[Dict[str, str]] = None,
                 container_network_delay: float = 35e-6,
                 physical_network_delay: float = 80e-6) -> None:
        """``placement`` maps containers to physical machine names; packets
        between containers on different machines incur
        ``physical_network_delay`` on top of the per-packet
        ``container_network_delay`` (Docker overlay cost).  Defaults follow
        the sub-0.1 ms deviations reported in §5.5."""
        self.sim = sim
        self.placement = placement or {}
        self.container_network_delay = container_network_delay
        self.physical_network_delay = physical_network_delay
        self._tcals: Dict[str, Tcal] = {}
        self.packets_delivered = 0
        self.packets_dropped = 0
        self.backpressure_events = 0
        # Blocked senders wait FIFO per shaping chain, like processes
        # blocked on a socket write; one drain event per chain at a time.
        self._blocked: Dict[Tuple[str, str], Deque] = {}
        self._drain_scheduled: Dict[Tuple[str, str], bool] = {}
        # Infrastructure delay per chain: placement and the two delays are
        # fixed for the life of the plane, so the cross-machine test runs
        # once per chain instead of once per packet.
        self._chain_delay: Dict[Tuple[str, str], float] = {}

    def attach_tcal(self, container: str, tcal: Tcal) -> None:
        self._tcals[container] = tcal

    def tcal_for(self, container: str) -> Tcal:
        try:
            return self._tcals[container]
        except KeyError:
            raise KeyError(f"no TCAL attached for {container!r}") from None

    def reachable(self, source: str, destination: str) -> bool:
        tcal = self._tcals.get(source)
        return tcal is not None and tcal.has_destination(destination)

    def infrastructure_delay(self, source: str, destination: str) -> float:
        """Container networking + (if cross-machine) the physical hop."""
        delay = self.container_network_delay
        if self.placement.get(source) != self.placement.get(destination):
            delay += self.physical_network_delay
        return delay

    def send(self, packet: Packet, deliver: Callable[[Packet], None],
             on_drop: Optional[Callable[[Packet], None]] = None,
             on_backpressure: Optional[Callable[[Packet, float], None]] = None
             ) -> None:
        """Shape and deliver ``packet``.

        netem drops invoke ``on_drop``; a full htb queue invokes
        ``on_backpressure`` with the earliest retry time (mirroring a
        blocked/zero-byte socket write) or, absent that handler, silently
        retries at that time — matching blocking-I/O semantics.
        """
        source = packet.source
        destination = packet.destination
        try:
            shaping = self._tcals[source].chains[destination]
        except KeyError:
            tcal = self.tcal_for(source)        # raises: no such sender
            try:
                shaping = tcal.shaping_for(destination)     # first use
            except KeyError:
                if on_drop is not None:
                    on_drop(packet)
                return
        chain = (source, destination)
        blocked = self._blocked
        if blocked and on_backpressure is None and blocked.get(chain):
            # Writers already blocked on this chain go first (FIFO order,
            # like writers queued on a socket).  A non-blocking sender
            # never joins them: it gets admission or EAGAIN, below.
            self.backpressure_events += 1
            blocked[chain].append((packet, deliver, on_drop))
            return
        try:
            release = shaping.egress(self.sim.now, packet.size_bits)
        except BackPressure as pressure:
            self.backpressure_events += 1
            if on_backpressure is not None:
                # Non-blocking semantics: the sender is told EAGAIN and
                # may abandon the datagram — that unmet offered load is
                # what the congestion model reads as "requested" (§3).
                shaping.record_refused(packet.size_bits)
                on_backpressure(packet, pressure.retry_at)
            else:
                # Blocking semantics: the packet waits and is carried
                # later, so it is queueing delay, not refused demand.
                blocked.setdefault(chain, deque()).append(
                    (packet, deliver, on_drop))
                self._schedule_drain(chain, pressure.retry_at)
            return
        self._forward(chain, packet, release, deliver, on_drop)

    def _forward(self, chain: Tuple[str, str], packet: Packet,
                 release: Optional[float], deliver, on_drop) -> None:
        """A shaped packet leaves the host: netem dropped it (``release``
        is ``None``) or it arrives after the infrastructure delay."""
        if release is None:  # netem loss (intrinsic or congestion-injected)
            self.packets_dropped += 1
            if on_drop is not None:
                on_drop(packet)
            return
        packet.hops += 1
        try:
            delay = self._chain_delay[chain]
        except KeyError:
            delay = self._chain_delay[chain] = \
                self.infrastructure_delay(*chain)
        self.sim.at(release + delay, self._deliver, packet, deliver)

    def _deliver(self, packet: Packet,
                 deliver: Callable[[Packet], None]) -> None:
        self.packets_delivered += 1
        deliver(packet)

    # ----------------------------------------------------- blocked senders
    def _schedule_drain(self, chain, at: float) -> None:
        if self._drain_scheduled.get(chain):
            return
        self._drain_scheduled[chain] = True
        # Strictly after "now": a drain re-armed at the current instant
        # would re-run against an unchanged queue forever.
        self.sim.at(max(at, self.sim.now + 1e-9), self._drain, chain)

    def _drain(self, chain) -> None:
        """Admit blocked senders head-of-line until the queue fills again."""
        self._drain_scheduled[chain] = False
        queue = self._blocked.get(chain)
        tcal = self._tcals.get(chain[0])
        while queue:
            packet, deliver, on_drop = queue[0]
            if tcal is None or not tcal.has_destination(chain[1]):
                queue.popleft()
                if on_drop is not None:
                    on_drop(packet)
                continue
            try:
                release = tcal.egress(self.sim.now, chain[1],
                                      packet.size_bits)
            except BackPressure as pressure:
                self._schedule_drain(chain, pressure.retry_at)
                return
            queue.popleft()
            self._forward(chain, packet, release, deliver, on_drop)
        if queue is not None and not queue:
            self._blocked.pop(chain, None)
