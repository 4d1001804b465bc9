#!/usr/bin/env python3
"""Quickstart: the unified Scenario API on Figure 1's topology.

One fluent chain declares the paper's running example — a client and two
server replicas behind two switches — wires the workloads that probe it,
and deploys it on two simulated machines::

    from repro.scenario import Scenario, iperf, ping

    run = (Scenario.build("figure1")
           .service("c1", image="iperf")
           .service("sv", image="nginx", replicas=2)
           .bridges("s1", "s2")
           .link("c1", "s1", latency="10ms", up="10Mbps")
           .link("s1", "s2", latency="20ms", up="100Mbps")
           .link("sv", "s2", latency="5ms", up="50Mbps")
           .workload(ping("c1", "sv.0"), iperf("c1", "sv.0", duration=15))
           .deploy(machines=2, seed=42)
           .compile()
           .run())

``compile()`` validates the whole description at once (undeclared link
endpoints, duplicate names, malformed units) and freezes it; ``run()``
returns the collected application measurements — ping RTTs matching the
collapsed 35 ms one-way path and iperf goodput matching the 10 Mb/s
bottleneck.  The same compiled scenario also yields ``dumps_scn()`` (its
canonical ``.scn`` document) and ``plan()`` (the §4 deployment document).

Run:  python examples/quickstart.py
"""

from repro.scenario import Scenario, dumps_scn, iperf, loads_scn, ping

SCENARIO = (Scenario.build("figure1")
            .service("c1", image="iperf")
            .service("sv", image="nginx", replicas=2)
            .bridges("s1", "s2")
            .link("c1", "s1", latency="10ms", up="10Mbps")
            .link("s1", "s2", latency="20ms", up="100Mbps")
            .link("sv", "s2", latency="5ms", up="50Mbps")
            .workload(ping("c1", "sv.0", count=100, interval=0.02))
            .workload(iperf("c1", "sv.0", duration=15, start=5))
            .workload(iperf("sv.0", "sv.1", duration=15, start=20))
            .deploy(machines=2, seed=42, duration=36.0))


def main() -> None:
    compiled = SCENARIO.compile()

    print("Collapsed end-to-end paths (Figure 1, right):")
    for line in compiled.path_table().splitlines():
        print(f"  {line}")

    run = compiled.run()

    # Latency check: c1 -> sv.0 should round-trip in 2 x 35 ms.
    stats = run["ping:c1->sv.0"]
    print(f"\nping c1 -> sv.0: mean RTT {stats.mean_rtt * 1e3:.2f} ms "
          f"(expected ~70 ms)")

    # Bandwidth check: the 10 Mb/s access link caps the path.
    result = run["iperf:c1->sv.0"]
    print(f"iperf c1 -> sv.0: {result.mean_goodput / 1e6:.2f} Mb/s goodput "
          f"(path capacity 10 Mb/s)")

    # Server replicas talk at 50 Mb/s through their shared switch.
    result = run["iperf:sv.0->sv.1"]
    print(f"iperf sv.0 -> sv.1: {result.mean_goodput / 1e6:.2f} Mb/s goodput "
          f"(path capacity 50 Mb/s)")

    # The scenario round-trips through its canonical .scn document.
    text = dumps_scn(compiled)
    reloaded = loads_scn(text).compile()
    assert dumps_scn(reloaded) == text
    assert reloaded.path_table() == compiled.path_table()
    print("\nthe .scn document round-trips: identical dump and paths")


if __name__ == "__main__":
    main()
