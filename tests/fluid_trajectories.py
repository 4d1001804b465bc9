"""Every float of every fluid step, observed from the outside.

:func:`trajectories` drives the fluid integrator through everything that
can change what a step reads — flows that start late, finish, are stopped
or share one container pair; reno, cubic and UDP senders; netem loss; a
scheduled latency swap, a node leaving and rejoining, an online event; a
packet plane occupying the wires bulk flows cross — and returns, per flow,
the ``repr()`` of the delivered rate, ``cwnd`` and ``rtt`` after every
10 ms step.  ``tests/golden/fluid_trajectories.json`` pins the result as the
parent of the per-flow-record integrator computed it.

The ``repeat_*`` systems start from a converged flow — one whose step
repeats its last outputs — and then change, one way each, something a
repeated step must notice: netem loss on the chain, the chain's rate, a
sized flow's end, the packet plane's load on a bare-metal wire, a path
narrowing under a frozen window, a series taken mid-repeat.  Besides the
three columns they pin the flow's transfer and loss counters and, when
shaped, its chain's counters, as the integrator before the repeated step
computed them.
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
from repro.scenario.topologies import point_to_point, star
from repro.sim import Process
from repro.topology import DynamicEvent, EventAction

MBPS = 1e6


def _record(system, flows, until, *, pauses=(), counters=None):
    """Run ``system`` to ``until`` sampling ``flows`` after every step.

    ``pauses`` are ``(time, callback)``: the run stops there, as a user
    driving the engine interactively would, and resumes after the call.
    ``counters(flow)``, when given, is sampled into a fourth column.
    """
    cwnd = {key: [] for key in flows}
    rtt = {key: [] for key in flows}
    sampled = {key: [] for key in flows}

    def sample():
        for key, flow in flows.items():
            cwnd[key].append(repr(flow.cwnd))
            rtt[key].append(repr(flow.rtt))
            if counters is not None:
                sampled[key].append(repr(counters(flow)))

    # Priority 11: right after the integrator's own tick (10), same grid.
    Process(system.sim, system.fluid.dt, sample, name="sample", priority=11)
    for time, callback in pauses:
        system.run(until=time)
        callback()
    system.run(until=until)
    recorded = {key: {"delivered": [repr(rate) for _, rate
                                    in system.fluid.series(key)],
                      "cwnd": cwnd[key], "rtt": rtt[key]}
                for key in flows}
    if counters is not None:
        for key in flows:
            recorded[key]["counters"] = sampled[key]
    return recorded


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


def _flow_counters(flow):
    return flow.bits_transferred, flow.loss_events, flow.finished


def _shaped_pair(until, *changes, flows=(("f", {}),)):
    """``flows`` on one 20 Mb/s shaped pair, no manager loop: every change
    to the chain is one of ``changes``, ``(time, callback(engine))``."""
    engine = (point_to_point(20 * MBPS, latency=0.010)
              .deploy(machines=2, seed=3, enforce_bandwidth_sharing=False)
              .compile().engine())
    started = {key: engine.start_flow(key, "client", "server", **options)
               for key, options in flows}
    tcal = engine.tcals["client"]

    def counters(flow):
        chain = tcal.chains.get("server")
        chain = (chain.bits_since_poll, chain.refused_since_poll) \
            if chain is not None else None
        return _flow_counters(flow) + (chain,)

    for time, change in changes:
        engine.sim.at(time, change, engine)
    return _record(engine, started, until, counters=counters)


def _set_loss(loss):
    return lambda engine: engine.tcals["client"].set_netem("server",
                                                           loss=loss)


def _set_rate(rate):
    return lambda engine: engine.tcals["client"].set_bandwidth("server",
                                                               rate)


def repeat_netem_loss():
    """Injected loss lands on a converged chain whose rate stays the same,
    then goes back to 0 and the window grows back to the chain's rate."""
    return _shaped_pair(3.0, (1.0, _set_loss(0.02)), (1.5, _set_loss(0.0)),
                        flows=(("f", {"congestion_control": "reno"}),))


def repeat_bandwidth():
    """The chain's rate halves, is written again unchanged, then restored."""
    return _shaped_pair(3.0, (1.0, _set_rate(10 * MBPS)),
                        (1.5, _set_rate(10 * MBPS)),
                        (2.0, _set_rate(20 * MBPS)))


def repeat_sized():
    """A sized flow ends while it and an open-ended twin repeat."""
    return _shaped_pair(3.0, flows=(("sized", {"size_bits": 15e6}),
                                    ("bulk", {"congestion_control": "reno"})))


def repeat_series():
    """A series taken mid-repeat, and read again once the run is over."""
    taken = []
    recorded = _shaped_pair(2.0, (1.005, lambda engine: taken.append(
        engine.fluid.series("f"))))
    recorded["f"]["taken"] = [repr(rate) for _, rate in taken[0]]
    return recorded


def repeat_baremetal():
    """Echo traffic starts loading the wire under an app-limited TCP flow
    and a UDP one, both converged."""
    testbed = BareMetalTestbed(
        point_to_point(20 * MBPS, latency=0.002).compile().topology, seed=7)
    flows = {
        "tcp": testbed.start_flow("tcp", "client", "server",
                                  demand=12 * MBPS),
        "udp": testbed.start_flow("udp", "client", "server", protocol="udp",
                                  demand=4 * MBPS),
    }
    Pinger(testbed.sim, testbed.dataplane, "client", "server", count=500,
           interval=0.001, size_bits=12000.0).start(at=1.0)
    return _record(testbed, flows, 2.0, counters=_flow_counters)


def repeat_backoff():
    """A converged bare-metal flow's path narrows to a tenth under it: the
    window it froze at overflows the buffer on a step that reuses the
    solve, and the flow backs off."""
    testbed = BareMetalTestbed(
        point_to_point(100 * MBPS, latency=0.05).compile().topology, seed=7)
    flows = {"f": testbed.start_flow("f", "client", "server")}
    narrow = point_to_point(10 * MBPS, latency=0.05).compile().topology
    testbed.sim.at(1.0, testbed.constraints.install_topology, narrow)
    return _record(testbed, flows, 2.0, counters=_flow_counters)


def trajectories():
    return {"kollaps": kollaps_trajectories(),
            "baremetal": baremetal_trajectories(),
            "repeat_netem_loss": repeat_netem_loss(),
            "repeat_bandwidth": repeat_bandwidth(),
            "repeat_sized": repeat_sized(),
            "repeat_series": repeat_series(),
            "repeat_baremetal": repeat_baremetal(),
            "repeat_backoff": repeat_backoff()}
