"""Network data planes.

Two packet-granularity planes share one interface (:class:`DataPlane`):

* :class:`~repro.netstack.fullnet.FullStateNetwork` — the ground truth: every
  physical link and switch of the topology is emulated hop-by-hop (what a
  bare-metal deployment, or a full-state emulator like Mininet, does).
* :class:`~repro.netstack.kollapsnet.KollapsDataPlane` — the collapsed plane:
  packets traverse only the sender's TCAL chain (netem + htb) and are then
  delivered end-to-end, exactly the Kollaps data path.

Bulk TCP/UDP throughput is modelled by the time-stepped fluid engine in
:mod:`repro.netstack.fluid`; short-flow (connection-per-request) transfer
times by the analytic model in :mod:`repro.netstack.shortflow`.
"""

from repro._lazy import lazy_exports
from repro.netstack.packet import Packet
from repro.netstack.plane import DataPlane
from repro.netstack.kollapsnet import KollapsDataPlane

_LAZY = {"link": ("PacketLink",), "fullnet": ("FullStateNetwork",),
         "shortflow": ("short_flow_transfer_time",)}
__getattr__, __dir__ = lazy_exports(globals(), _LAZY)

__all__ = [
    "Packet",
    "PacketLink",
    "DataPlane",
    "FullStateNetwork",
    "KollapsDataPlane",
    "short_flow_transfer_time",
]
