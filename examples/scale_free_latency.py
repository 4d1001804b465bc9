#!/usr/bin/env python3
"""Large scale-free topologies: collapsed RTT vs theoretical RTT (§5.5).

Generates a preferential-attachment (Barabási–Albert) scenario — the
paper's stand-in for Internet-like networks — collapses it, and compares
ping round-trip times measured through the emulation against the
theoretical shortest-path values, exactly as Table 4 does.  Also prints
the collapse cost, the paper's reason for pre-computing dynamic graphs
offline.

Run:  python examples/scale_free_latency.py
"""

import time

from repro.apps import Pinger
from repro.scenario.topologies import scale_free
from repro.sim import RngRegistry

SIZE = 400
PROBES = 12

SCENARIO = scale_free(SIZE, seed=9).deploy(
    machines=4, seed=9, enforce_bandwidth_sharing=False)


def main() -> None:
    compiled = SCENARIO.compile()
    topology = compiled.topology
    services = len(topology.services)
    print(f"scale-free topology: {SIZE} elements "
          f"({services} end nodes, {len(topology.bridges)} switches)")

    # The probes below build the trees of their own endpoints only; asking
    # for every path is the all-pairs computation §3 moves offline.
    started = time.perf_counter()
    collapsed = compiled.collapsed()
    everything = len(collapsed.paths())
    elapsed = time.perf_counter() - started
    print(f"collapse: all {everything} end-to-end paths "
          f"in {elapsed * 1e3:.0f} ms "
          "(why dynamic graphs are pre-computed offline, §3)\n")

    engine = compiled.engine()
    rng = RngRegistry(9).stream("probes")
    containers = topology.container_names()
    pairs = []
    while len(pairs) < PROBES:
        a, b = rng.sample(containers, 2)
        if collapsed.path(a, b) and collapsed.path(b, a):
            pairs.append((a, b))

    pingers = {pair: Pinger(engine.sim, engine.dataplane, *pair,
                            count=25, interval=0.05).start()
               for pair in pairs}
    engine.run(until=25 * 0.05 + 2.0)

    print(f"{'pair':>24}  {'theory ms':>10}  {'measured ms':>11}  "
          f"{'error us':>9}")
    worst = 0.0
    for (a, b), pinger in pingers.items():
        theory = collapsed.rtt(a, b)
        measured = pinger.stats.mean_rtt
        error_us = abs(measured - theory) * 1e6
        worst = max(worst, error_us)
        print(f"{a + '->' + b:>24}  {theory * 1e3:10.2f}  "
              f"{measured * 1e3:11.2f}  {error_us:9.1f}")
    print(f"\nworst deviation: {worst:.1f} us "
          "(paper: sub-millisecond at all sizes, Table 4)")


if __name__ == "__main__":
    main()
