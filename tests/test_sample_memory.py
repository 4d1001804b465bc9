"""A recorded sample costs about eight bytes, wherever it is kept.

Per-sample measurements are what grows with run length: the fluid
engine's step times and per-flow rates, each workload's throughput or
latency series, and every request/response client's latencies.  Each is
a column of ``array('d')``.  This file runs three workloads under
``tracemalloc`` — a quick Figure 4 memtier mesh, a 16-flow iperf dumbbell
and a 4-point flow campaign — then empties every sample container the
runs kept and reads how many traced bytes that released, per float
stored.

A float in a packed column is 8 bytes plus the array's growth slack.  A
float in a list costs 32 (a float object and a pointer), and a
``(time, value)`` tuple sample 80-100, so the bound of 12 fails on any
column that goes back to boxed floats.
"""

import gc
import tracemalloc

import pytest

from repro.campaign import Campaign
from repro.experiments.fig4 import point_scenario
from repro.scenario import Scenario, flow, iperf
from repro.scenario.topologies import dumbbell

BOUND = 12.0     # bytes per recorded float


_SERIES = ("series", "throughput", "latency")   # two floats an item


def _containers(run):
    """``(owner, name)`` of every sample container ``run`` keeps; an
    ``owner`` that is a dict holds the container under key ``name``."""
    found = []
    fluid = getattr(run.engine, "fluid", None)
    if fluid is not None:
        found.append((fluid, "_times"))
        found.extend((fluid._rates, key) for key in fluid._rates)
    for result in run.results.values():
        found.extend((result, name) for name in ("series", "rtts", "times")
                     if hasattr(result, name))
    for metrics in run.metrics.values():
        found += [(metrics, "throughput"), (metrics, "latency")]
    for state in getattr(run.engine, "_workload_state", {}).values():
        for client in state if isinstance(state, list) else ():
            found.append((client.stats, "latencies"))
    return found


def _get(owner, name):
    return owner[name] if isinstance(owner, dict) else getattr(owner, name)


def _columns(container):
    """A series' two columns, or the container itself."""
    if hasattr(container, "values"):
        return (container.times, container.values)
    return (container,)


def _release(owner, name) -> None:
    """Free a container's samples: a column is emptied in place, which
    reaches every alias of it; a tuple is replaced by ``()``."""
    container = _get(owner, name)
    if isinstance(container, tuple):
        object.__setattr__(owner, name, ())
        return
    for column in _columns(container):
        del column[:]


def bytes_per_float(execute):
    """Traced bytes released by emptying every sample container the runs
    ``execute()`` returns kept, per float those containers held.  A
    column two containers share (a flow's series shares the fluid
    engine's) counts once."""
    gc.collect()
    tracemalloc.start()
    try:
        containers, floats = [], {}
        for run in execute():
            for owner, name in _containers(run):
                container = _get(owner, name)
                if isinstance(container, tuple):
                    floats[id(container)] = len(container) * (
                        2 if name in _SERIES else 1)
                else:
                    for column in _columns(container):
                        floats[id(column)] = len(column)
                containers.append((owner, name))
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        for owner, name in containers:
            _release(owner, name)
        gc.collect()
        released = before - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    total = sum(floats.values())
    assert total > 5000
    return released / total


def memtier_mesh():
    """Figure 4's 4-host point, 10 connections a client (~10k latencies)."""
    return [point_scenario(hosts=4, connections=10, duration=0.3,
                           seed=1).compile().run()]


def iperf_dumbbell():
    builder = dumbbell(16, shared_bandwidth=200e6)
    for index in range(16):
        builder.workload(iperf(f"client{index}", f"server{index}",
                               duration=2.0, warmup=0.2, key=f"flow{index}"))
    return [builder.deploy(machines=8, seed=1, duration=2.0)
            .compile().run()]


def _shaped_pair(*, rate, seed=0):
    return (Scenario.build("pair").service("client").service("server")
            .bridge("s0")
            .link("client", "s0", latency="1ms", up=rate)
            .link("s0", "server", latency="1ms", up=rate)
            .workload(flow("client", "server", key="bulk"))
            .deploy(machines=2, seed=seed))


def flow_campaign():
    result = (Campaign("sample-memory").scenario(_shaped_pair)
              .grid(rate=[1e6, 5e6, 25e6, 100e6]).seeds(1)
              .backends("kollaps").until(8.0)).run(jobs=1)
    return [point.run for point in result.results]


@pytest.mark.parametrize("execute", [memtier_mesh, iperf_dumbbell,
                                     flow_campaign],
                         ids=["memtier-mesh", "iperf-dumbbell",
                              "flow-campaign"])
def test_a_recorded_sample_costs_about_eight_bytes(execute):
    assert 8.0 <= bytes_per_float(execute) <= BOUND
