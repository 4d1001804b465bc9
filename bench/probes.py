"""Layer probes: one public function each, called directly, ~1 s apiece.

The four hot spots ROADMAP names that ``BENCH_engine.json`` has no rate
for.  Each probe belongs to the workload its input is taken from and runs
in that workload's own (untraced) probe child; on every other workload the
metric reads 0.  Work per probe is a fixed count, so a rate moves only when
the code under it does.
"""

from __future__ import annotations

import time
from typing import Callable, Dict

__all__ = ["PROBE_METRICS", "run_probes"]

PROBE_METRICS = ("sim.probe_events_per_s", "netstack.probe_sends_per_s",
                 "tc.probe_installs_per_s", "tc.probe_reconfigures_per_s",
                 "core.collapse.probe_cold_pairs_per_s")


def _timed(function: Callable[[], None]) -> float:
    started = time.perf_counter()
    function()
    return time.perf_counter() - started


def _kv_probes(seed: int, params, quick: bool) -> Dict[str, float]:
    from repro.netstack.packet import Packet
    from repro.scenario import resolve_backend
    from repro.scenario.topologies import aws_mesh
    from repro.sim import Simulator
    from bench.workloads import _REGIONS

    # sim: schedule-and-dispatch rate of the bare event kernel.
    events = 20_000 if quick else 200_000
    sim = Simulator()

    def noop() -> None:
        pass

    def kernel() -> None:
        for index in range(events):
            sim.after(index * 1e-6, noop)
        sim.run()

    kernel_s = _timed(kernel)

    # netstack: KollapsDataPlane.send -> tcal egress -> delivery, on the
    # kv_packet engine.  One packet per collapsed chain per round, drained
    # between rounds, so no htb queue fills: this is the plain send path.
    # (The engine's periodic processes never let the queue run dry, so each
    # round advances a fixed 0.25 simulated s — past the longest WAN path.)
    rounds = 40 if quick else 400
    compiled = (aws_mesh(_REGIONS, services_per_region=4,
                         service_prefix="node")
                .deploy(machines=4, seed=seed,
                        enforce_bandwidth_sharing=False).compile())
    engine = resolve_backend("kollaps").prepare(compiled)
    plane = engine.dataplane
    containers = compiled.topology.container_names()
    chains = [(source, destination) for source in containers
              for destination in containers if source != destination]
    delivered = []

    def packets() -> None:
        for _round in range(rounds):
            for source, destination in chains:
                plane.send(Packet(source, destination, 480.0, kind="probe"),
                           delivered.append)
            engine.run(until=engine.sim.now + 0.25)

    packets_s = _timed(packets)
    sends = rounds * len(chains)
    if len(delivered) + plane.packets_dropped != sends:
        raise RuntimeError(f"netstack probe lost packets: {len(delivered)} "
                           f"delivered of {sends}")
    return {"sim.probe_events_per_s": events / kernel_s,
            "netstack.probe_sends_per_s": sends / packets_s}


def _install_probes(seed: int, params, quick: bool) -> Dict[str, float]:
    from repro.scenario.topologies import scale_free
    from repro.tc.ip import IpAllocator
    from repro.tc.tcal import Tcal
    from bench.workloads import _SHAPE_SEED

    containers = (scale_free(int(params["size"]), seed=_SHAPE_SEED).compile()
                  .topology.container_names())
    allocator = IpAllocator()
    for container in containers:
        allocator.assign(container)
    tcals = [Tcal(container, allocator) for container in containers]

    def install(bandwidth: float) -> Callable[[], None]:
        def body() -> None:
            for tcal in tcals:
                for destination in containers:
                    if destination != tcal.container:
                        tcal.install_destination(
                            destination, latency=0.004, jitter=0.0,
                            loss=0.0, bandwidth=bandwidth)
        return body

    chains = len(containers) * (len(containers) - 1)
    first_s = _timed(install(100e6))
    again_s = _timed(install(50e6))
    if sum(len(tcal.destinations()) for tcal in tcals) != chains:
        raise RuntimeError("tc probe: reconfigure created new chains")
    return {"tc.probe_installs_per_s": chains / first_s,
            "tc.probe_reconfigures_per_s": chains / again_s}


def _churn_probes(seed: int, params, quick: bool) -> Dict[str, float]:
    from repro.core.collapse import collapse
    from repro.scenario.topologies import scale_free
    from bench.workloads import _SHAPE_SEED

    topology = (scale_free(int(params["size"]), seed=_SHAPE_SEED).compile()
                .topology)
    pairs = 0

    def cold() -> None:
        nonlocal pairs
        for _repeat in range(2 if quick else 12):
            pairs += collapse(topology, memo=False).pair_count()

    cold_s = _timed(cold)
    return {"core.collapse.probe_cold_pairs_per_s": pairs / cold_s}


_PROBES = {"kv_packet": _kv_probes,
           "scale_free_install": _install_probes,
           "dynamic_churn": _churn_probes}


def has_probes(workload: str) -> bool:
    return workload in _PROBES


def run_probes(workload: str, seed: int, scale: str) -> Dict[str, object]:
    from bench.workloads import SCALES
    probes = dict.fromkeys(PROBE_METRICS, 0.0)
    probes.update(_PROBES[workload](seed, SCALES[scale][workload],
                                    scale == "quick"))
    return {"workload": workload, "probes": probes}
