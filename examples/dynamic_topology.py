#!/usr/bin/env python3
"""Dynamic topologies: a flapping WAN link under a live transfer.

A client streams bulk data to a server across a WAN link that degrades,
flaps (drops out and comes back, §3's flapping-link scenario) and recovers
— all declared inline on the Scenario builder with ``.at()`` event hooks,
then pre-computed offline exactly like the real Emulation Manager does.
The throughput timeline printed at the end shows the application-visible
effect of every event, and the textual dashboard snapshots the experiment
mid-flap.

Run:  python examples/dynamic_topology.py
"""

from repro.scenario import flow, link_down, link_up, set_link
from repro.scenario.topologies import point_to_point

SCENARIO = (
    point_to_point(50e6, latency=0.020)
    # t=10s: background congestion halves the available bandwidth.
    .at(10, set_link("client", "s0", bandwidth=25e6))
    # t=20s: the link flaps — gone for 2 seconds, then restored with its
    # original half-path properties (10 ms, 50 Mb/s).
    .at(20, link_down("client", "s0"))
    .at(22, link_up("client", "s0", latency="10ms", bandwidth=50e6))
    # t=30s: latency spikes (a route change), bandwidth stays intact.
    .at(30, set_link("client", "s0", latency="80ms"))
    .workload(flow("client", "server", key="transfer"))
    .deploy(machines=2, seed=7, duration=40.0))


def attach_dashboard(engine):
    """A ``custom`` install hook: it runs before time advances, so it can
    log the start and schedule a snapshot in the middle of the flap."""
    from repro.dashboard import Dashboard

    dashboard = Dashboard(engine)
    dashboard.log("experiment started")
    engine.sim.at(21.0, lambda: dashboard.log(
        "link is down — dashboard snapshot:\n" + dashboard.render_flows()))
    return dashboard


def main() -> None:
    from repro.scenario import custom

    run = (SCENARIO.workload(custom("dashboard", attach_dashboard, needs=()))
           .compile().run())
    engine, dashboard = run.engine, run["dashboard"]

    print("Throughput timeline (5-second windows):")
    for start in range(0, 40, 5):
        rate = engine.fluid.mean_throughput("transfer", start, start + 5)
        bar = "#" * int(rate / 1e6)
        print(f"  {start:2d}-{start + 5:2d}s  {rate / 1e6:6.2f} Mb/s  {bar}")

    print("\nEvent log:")
    for line in dashboard.events:
        print(" ", line.splitlines()[0])

    print("\nExpected shape: 50 -> 25 -> 0 (flap) -> 50 Mb/s, with the "
          "t=30s latency spike leaving bandwidth intact.")


if __name__ == "__main__":
    main()
