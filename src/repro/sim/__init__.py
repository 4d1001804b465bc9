"""Deterministic discrete-event simulation kernel.

Everything in this reproduction — the emulated cluster, the traffic-control
qdiscs, the packet network, the Kollaps emulation loop, the applications —
executes on top of this kernel.  It provides:

* :class:`~repro.sim.simulator.Simulator` — the event loop and clock,
* :class:`~repro.sim.simulator.Process` — long-running simulated activities,
* :class:`~repro.sim.rng.RngRegistry` — named, seeded random streams so that
  every experiment is reproducible bit-for-bit.
"""

from repro.sim.rng import RngRegistry
from repro.sim.simulator import Process, SimError, Simulator

__all__ = ["Simulator", "Process", "SimError", "RngRegistry"]
