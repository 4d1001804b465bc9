"""Simulated Linux Traffic Control: qdiscs, filters and the TCAL facade.

This package rebuilds the kernel machinery the real Kollaps drives through
netlink (§3 "TCAL", §4.1):

* :mod:`repro.tc.htb` — hierarchical token bucket qdisc for bandwidth
  shaping; full queues *back-pressure* the sender (TSQ semantics) instead of
  dropping, exactly the behaviour that motivates the paper's congestion
  model.
* :mod:`repro.tc.netem` — delay, jitter (normal/uniform) and packet loss.
* :mod:`repro.tc.u32` — the two-level hash filter on the destination IP's
  third and fourth octets, giving constant-time classification.
* :mod:`repro.tc.tcal` — the per-container TC Abstraction Layer: one netem +
  htb chain per destination, usage counters (``poll_active``),
  netlink-style updates (``set_bandwidth`` / ``set_netem``, counted in
  ``netlink_calls``).
"""

from repro.tc.htb import HtbClass, HtbQdisc
from repro.tc.netem import NetemQdisc
from repro.tc.u32 import U32Filter
from repro.tc.ip import Ipv4Address, IpAllocator
from repro.tc.tcal import PathShaping, Tcal

__all__ = [
    "HtbQdisc",
    "HtbClass",
    "NetemQdisc",
    "U32Filter",
    "Ipv4Address",
    "IpAllocator",
    "Tcal",
    "PathShaping",
]
