"""The data-plane interface shared by all network implementations."""

from __future__ import annotations

from typing import Callable, FrozenSet, Optional, Protocol

from repro.netstack.packet import Packet

__all__ = ["DataPlane", "DeliveryCallback", "PACKET_PLANE", "BULK_PLANE",
           "probe_planes"]

PACKET_PLANE = "packet"
BULK_PLANE = "bulk"

DeliveryCallback = Callable[[Packet], None]
BackpressureCallback = Callable[[Packet, float], None]


class DataPlane(Protocol):
    """Anything that can carry packets between containers.

    Implementations: :class:`~repro.netstack.fullnet.FullStateNetwork`
    (ground truth / full-state emulators) and
    :class:`~repro.netstack.kollapsnet.KollapsDataPlane` (the collapsed
    emulation).  Applications are written against this protocol only, so the
    same unmodified workload runs on either plane — the reproduction of the
    paper's "unmodified application" property.
    """

    def send(self, packet: Packet, deliver: DeliveryCallback,
             on_drop: Optional[DeliveryCallback] = None,
             on_backpressure: Optional[BackpressureCallback] = None) -> None:
        """Inject ``packet``; ``deliver`` fires at the destination.

        ``on_drop`` fires instead when the network loses it.  A plane whose
        sender-side queue can refuse a packet calls ``on_backpressure``
        with the earliest retry time, or — given none — holds the packet
        until the queue drains; planes that never refuse ignore it.  Both
        may be passed positionally.
        """
        ...

    def reachable(self, source: str, destination: str) -> bool:
        """Whether the plane currently routes source -> destination."""
        ...


def probe_planes(system: object) -> FrozenSet[str]:
    """Which data planes a live system actually exposes.

    Structural probing, the runtime counterpart of a backend's declared
    :class:`~repro.scenario.backends.BackendCapabilities`: a packet plane
    is a ``dataplane`` implementing :class:`DataPlane`, a bulk plane is a
    ``fluid`` engine plus the ``start_flow``/``stop_flow`` verbs.
    """
    planes = set()
    dataplane = getattr(system, "dataplane", None)
    if dataplane is not None and callable(getattr(dataplane, "send", None)) \
            and callable(getattr(dataplane, "reachable", None)):
        planes.add(PACKET_PLANE)
    if getattr(system, "fluid", None) is not None \
            and callable(getattr(system, "start_flow", None)) \
            and callable(getattr(system, "stop_flow", None)):
        planes.add(BULK_PLANE)
    return frozenset(planes)
