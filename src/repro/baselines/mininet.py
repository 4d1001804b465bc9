"""A Mininet-like centralized full-state emulator.

Mininet runs every emulated host, switch and link on one physical machine,
with veth pairs and per-switch processes (§2).  The consequences the paper
measures, and which this model reproduces from their causes:

* **1 Gb/s cap** — Mininet (htb through its API) refuses link rates above
  1 Gb/s: Table 2's "N/A" rows (:data:`MAX_LINK_RATE`).
* **per-switch state** — every switch tracks every connection through it;
  the first packet of each connection misses the flow table and pays a
  setup cost on the switch CPU, which also serves forwarding.  With
  connection-per-request workloads the control path saturates and
  throughput collapses as client count rises (Figure 6), while established
  flows (pings, keep-alive connections) cross in microseconds (Table 4,
  Figure 5).
* **single machine** — everything shares one host's CPU: emulating more
  elements than fit one machine fails (Table 4 "N/A" beyond 1000 elements —
  here :data:`ELEMENT_BUDGET`).

For well-behaved long-lived flows Mininet is accurate (same htb mechanism
as Kollaps), which Table 2/Figure 5 show: bulk flows run on the same
ground-truth fluid model.  Mininet is therefore the full-state testbed
(:class:`~repro.baselines.baremetal.BareMetalTestbed`) with
:func:`switch` at every bridge; the two limits are checked by
:class:`~repro.scenario.backends.MininetBackend` before anything is built.
"""

from __future__ import annotations

from repro.netstack.fullnet import SwitchModel

__all__ = ["MAX_LINK_RATE", "ELEMENT_BUDGET", "switch"]

MAX_LINK_RATE = 1e9
ELEMENT_BUDGET = 1700  # hosts+switches one machine can emulate
SWITCH_FORWARD_DELAY = 8e-6
CONNECTION_SETUP_COST = 5e-3
SWITCH_CAPACITY_PPS = 200e3


def switch(name: str) -> SwitchModel:
    """The Mininet switch at bridge ``name``: one userspace CPU that pays a
    flow-table miss per new connection and a fixed cost per packet."""
    return SwitchModel(forward_delay=SWITCH_FORWARD_DELAY,
                       connection_setup_cost=CONNECTION_SETUP_COST,
                       capacity_packets_per_s=SWITCH_CAPACITY_PPS)
