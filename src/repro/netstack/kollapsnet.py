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

_INF = float("inf")


def _never_quiet() -> float:
    """``next_control`` of a plane that knows nothing of its calendar."""
    return -_INF


class KollapsDataPlane:
    """Collapsed-topology packet delivery driven by per-container TCALs."""

    def __init__(self, sim: Simulator, *,
                 placement: Optional[Dict[str, str]] = None,
                 container_network_delay: float = 35e-6,
                 physical_network_delay: float = 80e-6,
                 next_control: Optional[Callable[[], float]] = None) -> None:
        """``placement`` maps containers to physical machine names; packets
        between containers on different machines incur
        ``physical_network_delay`` on top of the per-packet
        ``container_network_delay`` (Docker overlay cost).  Defaults follow
        the sub-0.1 ms deviations reported in §5.5.

        ``next_control()`` answers the earliest instant at which the
        emulation itself acts on the TCALs next (a manager loop, a fluid
        step, a state swap); without it :meth:`send_at` always schedules."""
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
        # send_at: the cached answer of next_control(), asked again only
        # once a departure reaches it, and per attached sender the latest
        # departure that was scheduled instead of shaped at once.
        self._next_control = next_control or _never_quiet
        self._quiet_until = -_INF
        self._scheduled_until: Dict[str, float] = {}

    def attach_tcal(self, container: str, tcal: Tcal) -> None:
        self._tcals[container] = tcal
        self._scheduled_until.setdefault(container, -_INF)

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
             on_drop: Optional[Callable[[Packet], None]] = None) -> None:
        """Shape and deliver ``packet``.

        netem drops invoke ``on_drop``; a full htb queue blocks the packet
        until it drains, behind the packets already blocked on that chain
        — a blocking socket write.
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
        if blocked and blocked.get(chain):
            # Writers already blocked on this chain go first (FIFO order,
            # like writers queued on a socket).
            self.backpressure_events += 1
            blocked[chain].append((packet, deliver, on_drop))
            return
        try:
            release = shaping.egress(self.sim.now, packet.size_bits)
        except BackPressure as pressure:
            # The packet waits and is carried later, so it is queueing
            # delay, not refused demand.
            self.backpressure_events += 1
            blocked.setdefault(chain, deque()).append(
                (packet, deliver, on_drop))
            self._schedule_drain(chain, pressure.retry_at)
            return
        self._forward(chain, packet, release, deliver, on_drop)

    def send_at(self, time: float, packet: Packet,
                deliver: Callable[[Packet], None],
                on_drop: Optional[Callable[[Packet], None]] = None) -> None:
        """:meth:`send` as if called at ``time`` (``>= sim.now``), shaped now.

        A dated departure is shaped with its chain as the chain stands
        when ``send_at`` is called: ``egress(time, ...)`` then the one
        delivery event, instead of an event at ``time`` that runs
        :meth:`send`.  That equals the scheduled send whenever nothing
        touches the chain, or the sender's netem RNG, before ``time``, so
        the packet is shaped at once only if

        (i) ``time`` is strictly before the emulation's next control
            instant (``next_control``: manager loops, fluid steps, state
            swaps), and no departure of the sender scheduled earlier is
            still waiting;
        (ii) the chain towards the destination already exists;
        (iii) no writer is blocked on any chain;
        (iv) the htb would admit the packet at ``time``;
        (v) the chain's netem loss is 0, so no drop fires before ``time``.

        Otherwise it schedules ``send`` at ``time``, which is the
        definition.  What lies outside the emulation's calendar is not
        seen: ``EmulationEngine.apply_event_online``, a user ``sim.at``
        hook rewriting the chain, or a second application sending from the
        same container inside the window changes the result.  Events
        falling on a bit-identical ``(time, priority)`` keep scheduling
        order, and a shaped departure's delivery is scheduled at the call.
        """
        now = self.sim.now
        if time >= self._quiet_until:
            self._quiet_until = self._next_control()
        source = packet.source
        destination = packet.destination
        scheduled_until = self._scheduled_until
        try:
            shaping = self._tcals[source].chains[destination]
        except KeyError:
            shaping = None
        if (shaping is None or not now <= time < self._quiet_until
                or scheduled_until[source] >= now or self._blocked
                or shaping.netem.loss > 0.0
                or not shaping.htb.admits(time, packet.size_bits)):
            if time > scheduled_until.get(source, -_INF):
                scheduled_until[source] = time
            self.sim.at(time, self.send, packet, deliver, on_drop)
            return
        self._forward((source, destination), packet,
                      shaping.egress(time, packet.size_bits), deliver,
                      on_drop)

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
