"""The TC Abstraction Layer (TCAL).

One TCAL instance is attached to each emulated container's network
namespace.  It owns the egress shaping chain for that container: a u32
filter classifying by destination address into per-destination netem + htb
stages, and it exposes the three operations the Emulation Core needs (§4.1):

* ``init`` — take the container's row of the collapsed topology
  (:meth:`Tcal.install_row`); the per-destination chain is built from it
  when the first packet or flow heads for that destination,
* ``get usage`` — read and reset per-destination byte counters (the netlink
  round-trip in the real system),
* ``set bandwidth / set netem`` — enforce the rates the sharing model
  computed and the loss the congestion model injected.

Egress processing order follows the paper: netem first (latency, jitter,
loss), then the parent htb class (bandwidth).

Chains are built on first use, so a container that talks to 3 of 286
reachable destinations owns 3 chains: installing a topology state costs
``O(chains that exist)`` per container, and :meth:`Tcal.destinations`
and the poll list the chains that exist — not every destination the
container could reach.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro import telemetry
from repro.tc.htb import BackPressure, HtbClass, HtbQdisc
from repro.tc.ip import IpAllocator, Ipv4Address
from repro.tc.netem import NetemQdisc
from repro.tc.u32 import U32Filter

__all__ = ["Tcal", "PathShaping"]


@dataclass(slots=True)
class PathShaping:
    """The netem + htb pair shaping traffic towards one destination.

    ``bits_since_poll`` counts traffic the chain carried;
    ``refused_since_poll`` counts offered load that was *abandoned* at a
    full queue (a non-blocking sender seeing EAGAIN — UDP-style traffic).
    Their sum is the *requested* bandwidth of §3's congestion model.
    Blocking senders are deliberately not counted here: their packets are
    queued and carried later, so counting the refusal too would double the
    apparent demand of a merely flow-controlled TCP stream.
    """

    class_id: int
    netem: NetemQdisc
    htb: HtbClass
    destination: str
    bits_since_poll: float = 0.0
    refused_since_poll: float = 0.0

    def egress(self, now: float, size_bits: float) -> Optional[float]:
        """Push one packet through netem then htb — the per-packet step.

        Returns the simulated time at which the packet leaves this host
        (shaping delay applied), or ``None`` if netem dropped it.  Raises
        :class:`BackPressure` when the htb queue is full.
        """
        netem = self.netem
        if netem.loss > 0.0 or netem.jitter > 0.0:
            added_delay = netem.process()
            if added_delay is None:
                return None
        else:
            # Nothing to draw: process() would count the packet and hand
            # back the latency without touching the RNG.
            netem.packets_delayed += 1
            added_delay = netem.latency
        release = self.htb.enqueue(now, size_bits)
        self.bits_since_poll += size_bits
        return release + added_delay

    def record(self, size_bits: float) -> None:
        self.bits_since_poll += size_bits

    def record_refused(self, size_bits: float) -> None:
        self.refused_since_poll += size_bits


def _no_row(destination: str) -> None:
    """The row of a TCAL no topology state was installed into."""
    return None


class Tcal:
    """Per-container egress shaping facade."""

    def __init__(self, container: str, allocator: IpAllocator, *,
                 rng: Optional[random.Random] = None,
                 default_rate: float = 10e9) -> None:
        self.container = container
        self.allocator = allocator
        self.rng = rng
        self.filter = U32Filter()
        self.qdisc = HtbQdisc(default_rate)
        #: destination -> chain, for the chains that exist.  The data plane
        #: reads it once per packet; only this class writes it.
        self.chains: Dict[str, PathShaping] = {}
        # destination -> collapsed path (or None) in the state in force.
        self._row: Callable[[str], Optional[object]] = _no_row
        self._next_class = 1
        self.netlink_calls = 0

    # ----------------------------------------------------------------- setup
    def install_row(self, row: Callable[[str], Optional[object]]) -> int:
        """Swap in this container's row of a collapsed topology state.

        ``row(destination)`` is the collapsed path towards ``destination``
        (anything whose ``.properties`` carry ``latency``, ``jitter``,
        ``jitter_distribution``, ``loss`` and ``bandwidth``), or ``None``
        when it is unreachable.
        Chains that exist are reset to their new path properties — whatever
        rate or loss a manager had enforced on them — or removed when the
        destination is gone (packets to it are dropped, as with a removed
        route); every other reachable destination gets its chain from the
        row on first use.  Returns how many chains were touched:
        ``O(chains that exist)``.
        """
        self._row = row
        existing = self.destinations()      # a snapshot: we remove
        for destination in existing:
            path = row(destination)
            if path is None:
                self.remove_destination(destination)
            else:
                self._install_path(destination, path)
        return len(existing)

    def _install_path(self, destination: str, path) -> PathShaping:
        properties = path.properties
        return self.install_destination(
            destination, latency=properties.latency, jitter=properties.jitter,
            loss=properties.loss, bandwidth=properties.bandwidth,
            distribution=properties.jitter_distribution)

    def install_destination(self, destination: str, *, latency: float,
                            jitter: float, loss: float, bandwidth: float,
                            distribution: str = "normal") -> PathShaping:
        """Create (or reconfigure) the shaping chain towards a destination."""
        existing = self.chains.get(destination)
        if existing is not None:
            existing.netem.configure(latency=latency, jitter=jitter,
                                     loss=loss, distribution=distribution)
            existing.htb.set_rate(bandwidth)
            return existing
        # Everything that can refuse the request runs before any state
        # changes, so a rejected install leaves no half-built chain.
        address = self.allocator.lookup(destination)
        class_id = self._next_class
        htb_class = self.qdisc.ensure_class(class_id, bandwidth)
        netem = NetemQdisc(latency=latency, jitter=jitter, loss=loss,
                           distribution=distribution, rng=self.rng)
        self._next_class += 1
        self.filter.add_match(address, class_id)
        shaping = PathShaping(class_id, netem, htb_class, destination)
        self.chains[destination] = shaping
        if telemetry.enabled():
            telemetry.metrics.counter("tc.chains_built").inc()
        return shaping

    def remove_destination(self, destination: str) -> None:
        shaping = self.chains.pop(destination, None)
        if shaping is None:
            raise KeyError(f"no shaping chain towards {destination!r}")
        self.filter.remove_match(self.allocator.lookup(destination))
        self.qdisc.remove_class(shaping.class_id)

    def destinations(self) -> Tuple[str, ...]:
        """The destinations whose chain exists, in creation order."""
        return tuple(self.chains)

    def has_destination(self, destination: str) -> bool:
        """Whether traffic towards ``destination`` has a chain to take:
        one exists, or the row in force reaches it."""
        return destination in self.chains or \
            self._row(destination) is not None

    def shaping_for(self, destination: str) -> PathShaping:
        """The chain towards ``destination`` — built from the row in force
        if this is its first use; ``KeyError`` when unreachable."""
        try:
            return self.chains[destination]
        except KeyError:
            path = self._row(destination)
        if path is None:
            raise KeyError(
                f"{self.container}: no chain towards {destination!r}")
        return self._install_path(destination, path)

    # ------------------------------------------------------------- data path
    def egress(self, now: float, destination: str,
               size_bits: float) -> Optional[float]:
        """:meth:`PathShaping.egress` on the chain towards ``destination``."""
        return self.shaping_for(destination).egress(now, size_bits)

    def classify(self, address: Ipv4Address) -> Optional[int]:
        return self.filter.classify(address)

    # ----------------------------------------------------------- enforcement
    def set_bandwidth(self, destination: str, rate: float) -> None:
        """netlink-style rate update on the destination's htb class."""
        self.shaping_for(destination).htb.set_rate(rate)
        self._count_write()

    def set_netem(self, destination: str, *, latency: Optional[float] = None,
                  jitter: Optional[float] = None,
                  loss: Optional[float] = None) -> None:
        self.shaping_for(destination).netem.configure(
            latency=latency, jitter=jitter, loss=loss)
        self._count_write()

    def _count_write(self) -> None:
        self.netlink_calls += 1
        if telemetry.enabled():
            telemetry.metrics.counter("tc.netlink_writes").inc()

    # ------------------------------------------------------------ monitoring
    def poll_active(self) -> Dict[str, Tuple[float, float]]:
        """``(carried, refused)`` bits of every destination that saw
        traffic since the previous poll (then reset).

        The Emulation Core's step (2), "obtain the bandwidth usage by
        querying the TCAL": one netlink round-trip reading what each chain
        sent and what its shaping turned away (the qdisc backlog/requeue
        statistics the congestion model reads to detect oversubscription,
        §3).  Idle chains have no entry — every loop period all but a few
        of a container's chains are.
        """
        self.netlink_calls += 1
        active = {}
        for destination, shaping in self.chains.items():
            if shaping.bits_since_poll or shaping.refused_since_poll:
                active[destination] = (shaping.bits_since_poll,
                                       shaping.refused_since_poll)
                shaping.bits_since_poll = 0.0
                shaping.refused_since_poll = 0.0
        return active
