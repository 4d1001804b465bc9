"""Comparator systems the paper evaluates Kollaps against (§5).

Bare metal, Mininet and Maxinet keep the full hop-by-hop network state that
Kollaps collapses away, so they are one testbed
(:class:`~repro.baselines.baremetal.BareMetalTestbed`: every link and switch
of the topology, bulk flows on the real capacities) with three switch
models.  Each system's calibrated constants live in its module:

* :mod:`repro.baselines.baremetal` — the ground truth: no switch model, zero
  emulation overhead (the authors' hardware testbed).
* :mod:`repro.baselines.mininet` — a centralized full-state emulator on ONE
  machine: link rates capped at 1 Gb/s, at most 1 700 hosts+switches, and a
  switch CPU that pays 5 ms per new connection, 8 µs of pipeline and
  1/200 000 s per packet, so per-connection state degrades short-flow
  workloads (§5.1 Table 2, §5.3 Figure 6).
* :mod:`repro.baselines.maxinet` — a distributed full-state emulator whose
  switches (30 µs pipeline) consult an external POX controller — 1.2 ms
  service time, 4 ms round trip, 40 ms rule lifetime — and whose
  cross-worker hops pay 120 µs of tunnelling (§5.5 Table 4).
* :mod:`repro.baselines.trickle` — a userspace shaper whose accuracy
  depends on the application's socket buffer size (§5.1 Table 2).

Harnesses do not construct these classes directly: each baseline is
wrapped by an :class:`~repro.scenario.backends.ExecutionBackend`, and
experiments swap systems with ``compiled.run(backend="mininet")`` etc.
through the backend registry in :mod:`repro.scenario.backends`.  A
submodule loads the first time one of its names is used.
"""

from repro._lazy import lazy_exports

_LAZY = {"baremetal": ("BareMetalTestbed",), "maxinet": ("MaxinetEmulator",),
         "trickle": ("TrickleShaper",)}
__getattr__, __dir__ = lazy_exports(globals(), _LAZY)

__all__ = ["BareMetalTestbed", "MaxinetEmulator", "TrickleShaper"]
