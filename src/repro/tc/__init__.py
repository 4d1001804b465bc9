"""Simulated Linux Traffic Control: qdiscs and the TCAL facade.

This package rebuilds the kernel machinery the real Kollaps drives through
netlink (§3 "TCAL", §4.1):

* :mod:`repro.tc.htb` — the htb class shaping bandwidth; a full queue
  *back-pressures* the sender (TSQ semantics) instead of dropping,
  exactly the behaviour that motivates the paper's congestion model.
* :mod:`repro.tc.netem` — delay, jitter (normal/uniform) and packet loss.
* :mod:`repro.tc.tcal` — the per-container TC Abstraction Layer: one netem +
  htb chain per destination, found by destination (the real system's u32
  hash filter), usage counters (``poll_active``), netlink-style updates
  (``set_bandwidth`` / ``set_netem``, counted in ``netlink_calls``).
"""

from repro.tc.htb import HtbClass
from repro.tc.netem import NetemQdisc
from repro.tc.ip import Ipv4Address, IpAllocator
from repro.tc.tcal import PathShaping, Tcal

__all__ = [
    "HtbClass",
    "NetemQdisc",
    "Ipv4Address",
    "IpAllocator",
    "Tcal",
    "PathShaping",
]
