"""Every float of every fluid step, observed from the outside.

:func:`trajectories` drives the fluid integrator through everything that
can change what a step reads — flows that start late, finish, are stopped
or share one container pair; reno, cubic and UDP senders; netem loss; a
scheduled latency swap, a node leaving and rejoining, an online event; a
packet plane occupying the wires bulk flows cross — and returns, per flow,
the ``repr()`` of the delivered rate, ``cwnd`` and ``rtt`` after every
10 ms step.  ``tests/golden/fluid_trajectories.json`` pins the result as the
parent of the per-flow-record integrator computed it.
"""

from repro.apps import Pinger
from repro.baselines import BareMetalTestbed
from repro.scenario import (
    Scenario,
    link_up,
    node_join,
    node_leave,
    set_link,
)
from repro.scenario.topologies import star
from repro.sim import Process
from repro.topology import DynamicEvent, EventAction

MBPS = 1e6


def _record(system, flows, until, *, pauses=()):
    """Run ``system`` to ``until`` sampling ``flows`` after every step.

    ``pauses`` are ``(time, callback)``: the run stops there, as a user
    driving the engine interactively would, and resumes after the call.
    """
    cwnd = {key: [] for key in flows}
    rtt = {key: [] for key in flows}

    def sample():
        for key, flow in flows.items():
            cwnd[key].append(repr(flow.cwnd))
            rtt[key].append(repr(flow.rtt))

    # Priority 11: right after the integrator's own tick (10), same grid.
    Process(system.sim, system.fluid.dt, sample, name="sample", priority=11)
    for time, callback in pauses:
        system.run(until=time)
        callback()
    system.run(until=until)
    return {key: {"delivered": [repr(rate) for _, rate
                                in system.fluid.series(key)],
                  "cwnd": cwnd[key], "rtt": rtt[key]}
            for key in flows}


def kollaps_trajectories():
    """Five flows over one 20 Mb/s link of a two-manager Kollaps engine."""
    builder = Scenario.build("trajectories").bridges("b1", "b2")
    for index in (1, 2, 3):
        builder.service(f"c{index}").service(f"s{index}")
        builder.link(f"c{index}", "b1", latency=0.001, up=100 * MBPS,
                     loss=0.01 if index == 1 else 0.0)
        builder.link(f"s{index}", "b2", latency=0.001, up=100 * MBPS)
    builder.link("b1", "b2", latency=0.005, up=20 * MBPS)
    builder.at(1.2, set_link("b1", "b2", latency=0.020))
    builder.at(1.8, node_leave("s3"))
    builder.at(2.2, node_join("s3"),
               link_up("s3", "b2", latency=0.001, up=100 * MBPS))
    engine = builder.deploy(machines=2, seed=7).compile().engine()
    flows = {
        "reno": engine.start_flow("reno", "c1", "s1",
                                  congestion_control="reno"),
        "cubic": engine.start_flow("cubic", "c2", "s2", start_time=0.5),
        # A second flow of the same container pair: one shared pseudo-link.
        "twin": engine.start_flow("twin", "c2", "s2",
                                  congestion_control="reno"),
        "udp": engine.start_flow("udp", "c3", "s3", protocol="udp",
                                 demand=8 * MBPS),
        "sized": engine.start_flow("sized", "c1", "s2", size_bits=2e6),
    }
    engine.sim.at(2.6, engine.stop_flow, "twin")
    halve = DynamicEvent(time=2.4, action=EventAction.SET_LINK, origin="b1",
                         destination="b2", changes={"bandwidth": 10 * MBPS})
    return _record(engine, flows, 3.0, pauses=[
        (2.4, lambda: engine.apply_event_online(halve))])


def baremetal_trajectories():
    """Two bulk flows share ``a``'s uplink with 12 Mb/s of echo traffic."""
    testbed = BareMetalTestbed(
        star(["a", "b", "c"], bandwidth=100 * MBPS,
             latency=0.002).compile().topology, seed=7)
    flows = {
        "x": testbed.start_flow("x", "a", "c"),
        "y": testbed.start_flow("y", "a", "b", congestion_control="reno",
                                start_time=0.3),
    }
    Pinger(testbed.sim, testbed.dataplane, "a", "c", count=1200,
           interval=0.001, size_bits=12000.0).start(at=0.2)
    occupied = []
    uplink = testbed.constraints.collapsed.path("a", "c").link_ids[0]
    testbed.sim.at(1.0, lambda: occupied.append(
        testbed.network.packet_rates.get(uplink, 0.0)))
    recorded = _record(testbed, flows, 2.0)
    assert occupied[0] > 1 * MBPS      # the packet plane really was there
    return recorded


def trajectories():
    return {"kollaps": kollaps_trajectories(),
            "baremetal": baremetal_trajectories()}
