"""The five fixed workloads of the ledger.

Each workload runs inside a fresh child process (:mod:`bench.child`) and
drives the program through its public lifecycle only::

    build/load -> Scenario.compile() -> resolve_backend("kollaps").prepare()
        -> start_workloads() -> advance() -> collect()

(or ``Campaign.run(jobs=1, store=...)``), with every call timed from the
outside by the ``phase`` context manager the child hands in.  Work per
workload is *fixed* by :data:`SCALES` — a simulated horizon, an element
count, a point count — never by wall time, so every count repeats exactly
for a given seed.  Nothing here imports :mod:`repro` at module level: the
child times the import itself.
"""

from __future__ import annotations

import hashlib
import os
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

__all__ = ["WORKLOADS", "SCALES", "Outcome", "engine_counts"]

# Fixed work per workload.  "full" is what BENCHMARK.json measures (one
# child is 2.5-3 s on the 2-core reference box, so five fresh children fit
# one 15 s run); "quick" is the tier-1 smoke scale and is never comparable
# with "full".
SCALES: Dict[str, Dict[str, Dict[str, float]]] = {
    "full": {
        "kv_packet": {"duration": 2.2},
        "bulk_sharing": {"duration": 16.0, "warmup": 2.0},
        "scale_free_install": {"size": 430, "pairs": 30, "pings": 40},
        "dynamic_churn": {"size": 110, "events": 40, "pairs": 10},
        "campaign_sweep": {"rates": 12, "seeds": 3},
    },
    "quick": {
        "kv_packet": {"duration": 0.3},
        "bulk_sharing": {"duration": 1.0, "warmup": 0.25},
        "scale_free_install": {"size": 60, "pairs": 6, "pings": 10},
        "dynamic_churn": {"size": 40, "events": 6, "pairs": 3},
        "campaign_sweep": {"rates": 2, "seeds": 1},
    },
}


# The scale-free *shape* is fixed: across topology seeds the same element
# count moves collapse and install time by +-10 % (path lengths differ),
# which would read as run-to-run spread.  ``--seed`` feeds everything else:
# the deploy seed, the probe pairs and the churn event picker.
_SHAPE_SEED = 1


@dataclass
class Outcome:
    """What a run's report yields once the clock has stopped."""

    work: float                     # fixed work done, in the workload's unit
    ops: int                        # application-level operations completed
    engines: List[object]           # live systems whose counters are summed
    digest_parts: List[str]         # user-visible results, canonical text
    checks: List[Tuple[str, bool]]  # workload sanity, (name, passed)
    counts: Dict[str, float] = field(default_factory=dict)


#: A workload's ``run`` returns this: digests, checks and sums are only
#: computed when the child calls it, after timing has ended.
Report = Callable[[], Outcome]


def _num(value: float) -> str:
    """Nine significant digits: stable across libm/numpy last-bit noise."""
    return f"{float(value):.9g}"


def path_table_checksum(collapsed) -> str:
    """blake2b over the collapsed end-to-end path table, order-free."""
    lines = sorted(
        f"{path.source}>{path.destination}:{_num(path.properties.latency)},"
        f"{_num(path.properties.bandwidth)},{_num(path.properties.jitter)},"
        f"{_num(path.properties.loss)}|{','.join(map(str, path.link_ids))}"
        for path in collapsed.paths())
    digest = hashlib.blake2b(digest_size=16)
    for line in lines:
        digest.update(line.encode())
        digest.update(b"\n")
    return digest.hexdigest()


def _drive(builder, phase):
    """The public scenario lifecycle, each call its own timed phase."""
    from repro.scenario import resolve_backend
    with phase("compile"):
        compiled = builder.compile()
    backend = resolve_backend("kollaps")
    with phase("prepare"):
        engine = backend.prepare(compiled)
    with phase("start"):
        backend.start_workloads()
    horizon = compiled.default_duration()
    with phase("advance"):
        backend.advance(horizon)
    with phase("collect"):
        results, metrics = backend.collect(horizon)
    backend.teardown()
    return engine, horizon, results, metrics


def _ping_outcome(results, pairs, pings: int):
    """Digest lines and the every-ping-answered check for probe pairs."""
    parts, answered = [], 0
    for pair in pairs:
        stats = results[pair]
        answered += stats.received
        parts.append(f"{pair[0]}>{pair[1]}:{stats.received}/{stats.sent}:"
                     f"{_num(stats.median_rtt)}")
    expected = len(pairs) * pings
    return parts, answered, ("every ping answered", answered == expected)


# ---------------------------------------------------------------------------
# kv_packet — Figure 4's geo-replicated memcached point.
# ---------------------------------------------------------------------------
_REGIONS = ["virginia", "oregon", "ireland", "saopaulo"]


def _kv_load() -> None:
    import repro.apps  # noqa: F401
    import repro.scenario  # noqa: F401
    import repro.scenario.topologies  # noqa: F401


def _kv_run(seed: int, params, phase, workdir: str) -> Report:
    from repro.apps import KvServer, MemtierClient
    from repro.scenario import custom
    from repro.scenario.topologies import aws_mesh
    from repro.sim import RngRegistry

    def install(engine):
        rng = RngRegistry(seed)
        servers, clients = [], []
        for index, region in enumerate(_REGIONS):
            server = KvServer(engine.sim, engine.dataplane,
                              f"node-{region}-0")
            servers.append(server)
            # Two local clients plus one from the next region over.
            sources = [f"node-{region}-1", f"node-{region}-2",
                       f"node-{_REGIONS[(index + 1) % len(_REGIONS)]}-3"]
            for source in sources:
                clients.append(MemtierClient(
                    engine.sim, engine.dataplane, source, server,
                    connections=10, rng=rng.stream(f"memtier:{source}")))
        return servers, clients

    with phase("build"):
        builder = (aws_mesh(_REGIONS, services_per_region=4,
                            service_prefix="node")
                   .workload(custom("kv", install))
                   .deploy(machines=4, seed=seed,
                           duration=params["duration"]))
    engine, _horizon, results, _metrics = _drive(builder, phase)

    def report() -> Outcome:
        servers, clients = results["kv"]
        ops = sum(client.stats.completed for client in clients)
        parts = []
        for client in clients:
            latencies = sorted(client.stats.latencies)
            median = latencies[len(latencies) // 2] if latencies else 0.0
            parts.append(f"{client.source}:{client.stats.completed}:"
                         f"{_num(median)}")
        checks = [
            ("kv ops completed", ops > 0),
            ("every client completed ops",
             all(client.stats.completed > 0 for client in clients)),
            ("servers served every completed op",
             sum(server.operations for server in servers) >= ops),
        ]
        return Outcome(work=float(ops), ops=ops, engines=[engine],
                       digest_parts=parts, checks=checks)

    return report


# ---------------------------------------------------------------------------
# bulk_sharing — 16 long-lived flows over one shared link.
# ---------------------------------------------------------------------------
_BULK_FLOWS = 16
_BULK_SHARED = 200e6


def _bulk_load() -> None:
    import repro.scenario  # noqa: F401
    import repro.scenario.topologies  # noqa: F401


def _bulk_run(seed: int, params, phase, workdir: str) -> Report:
    from repro.scenario import iperf
    from repro.scenario.topologies import dumbbell

    duration = params["duration"]
    with phase("build"):
        builder = dumbbell(_BULK_FLOWS, shared_bandwidth=_BULK_SHARED)
        for index in range(_BULK_FLOWS):
            builder.workload(iperf(
                f"client{index}", f"server{index}", duration=duration,
                warmup=params["warmup"],
                congestion_control="reno" if index % 2 else "cubic",
                key=f"flow{index}"))
        builder.deploy(machines=8, seed=seed, duration=duration)
    engine, _horizon, results, metrics = _drive(builder, phase)

    def report() -> Outcome:
        keys = [f"flow{index}" for index in range(_BULK_FLOWS)]
        parts = []
        for key in keys:
            summary = dict(metrics[key].summary,
                           samples=len(metrics[key].throughput))
            parts.append(key + ":" + ",".join(
                f"{name}={_num(summary[name])}" for name in sorted(summary)))
        goodput = sum(results[key].mean_goodput for key in keys)
        checks = [
            ("every flow carried traffic",
             all(results[key].mean_goodput > 0 for key in keys)),
            ("aggregate goodput within link capacity",
             goodput <= _BULK_SHARED),
        ]
        return Outcome(work=_BULK_FLOWS * duration, ops=0, engines=[engine],
                       digest_parts=parts, checks=checks)

    return report


# ---------------------------------------------------------------------------
# scale_free_install — Table 4's shape: cold collapse + first state install.
# ---------------------------------------------------------------------------
def _scale_free_load() -> None:
    import repro.experiments.table4  # noqa: F401
    import repro.scenario  # noqa: F401
    import repro.scenario.topologies  # noqa: F401


def _install_run(seed: int, params, phase, workdir: str) -> Report:
    from repro.experiments.table4 import pick_pairs
    from repro.scenario import ping
    from repro.scenario.topologies import scale_free

    size, pings = int(params["size"]), int(params["pings"])
    with phase("build"):
        # As table4.point_scenario: picking reachable probe pairs needs the
        # collapsed table, so the cold all-pairs collapse happens here and
        # prepare() below finds it in the memo.
        bare = scale_free(size, seed=_SHAPE_SEED).compile()
        pairs = pick_pairs(bare, seed=seed, pair_count=int(params["pairs"]))
        builder = scale_free(size, seed=_SHAPE_SEED)
        for index, (a, b) in enumerate(pairs):
            builder.workload(ping(a, b, count=pings, interval=0.05,
                                  start=index * 0.001, key=(a, b)))
        builder.deploy(machines=4, seed=seed,
                       enforce_bandwidth_sharing=False,
                       duration=pings * 0.05 + 3.0)
    engine, _horizon, results, _metrics = _drive(builder, phase)

    def report() -> Outcome:
        collapsed = engine.current_state.collapsed
        containers = len(bare.topology.container_names())
        parts, answered, ping_check = _ping_outcome(results, pairs, pings)
        parts.append("paths:" + path_table_checksum(collapsed))
        checks = [
            ping_check,
            ("every ordered pair collapsed",
             collapsed.pair_count() == containers * (containers - 1)),
        ]
        return Outcome(work=float(collapsed.pair_count()), ops=answered,
                       engines=[engine], digest_parts=parts, checks=checks)

    return report


# ---------------------------------------------------------------------------
# dynamic_churn — pre-computed dynamic states, swapped at run time.
# ---------------------------------------------------------------------------
def _churn_run(seed: int, params, phase, workdir: str) -> Report:
    from repro.scenario import ping, set_link
    from repro.scenario.topologies import scale_free

    size, events = int(params["size"]), int(params["events"])
    horizon = 0.5 * (events + 1) + 0.5
    pings = int((horizon - 1.0) / 0.05)
    with phase("build"):
        rng = random.Random(seed)
        bare = scale_free(size, seed=_SHAPE_SEED).compile()
        backbone = [link for link in bare.topology.links()
                    if link.source.startswith("sw")
                    and link.destination.startswith("sw")
                    and link.source < link.destination]
        containers = bare.topology.container_names()
        builder = scale_free(size, seed=_SHAPE_SEED)
        # Distinct links, two bandwidth-only changes to one latency change:
        # the first re-composes properties over cached routes (incremental
        # memo tier), the second re-runs every Dijkstra (full tier).
        for index, link in enumerate(rng.sample(backbone, events)):
            if index % 3 == 2:
                change = set_link(link.source, link.destination,
                                  latency=link.properties.latency * 2.0)
            else:
                change = set_link(link.source, link.destination,
                                  up=link.properties.bandwidth / 2.0)
            builder.at(0.5 * (index + 1), change)
        pairs = []
        while len(pairs) < int(params["pairs"]):
            pair = tuple(rng.sample(containers, 2))
            if pair not in pairs:
                pairs.append(pair)
        for index, (a, b) in enumerate(pairs):
            builder.workload(ping(a, b, count=pings, interval=0.05,
                                  start=index * 0.001, key=(a, b)))
        builder.deploy(machines=4, seed=seed,
                       enforce_bandwidth_sharing=False, duration=horizon)
    engine, _horizon, results, _metrics = _drive(builder, phase)

    def report() -> Outcome:
        parts, answered, ping_check = _ping_outcome(results, pairs, pings)
        parts.append("paths:" + path_table_checksum(
            engine.current_state.collapsed))
        checks = [
            ping_check,
            ("one pre-computed state per event",
             len(engine.plan) == events + 1),
            ("final state in force",
             engine.current_state is engine.plan.states[-1]),
        ]
        return Outcome(work=float(len(engine.plan)), ops=answered,
                       engines=[engine], digest_parts=parts, checks=checks)

    return report


# ---------------------------------------------------------------------------
# campaign_sweep — many tiny experiments through the campaign runner.
# ---------------------------------------------------------------------------
def _campaign_load() -> None:
    import repro.campaign  # noqa: F401
    import repro.scenario  # noqa: F401


def _shaped_pair(*, rate: float, seed: int = 0):
    """examples/campaign_sweep.py's point: one flow behind a shaped switch."""
    from repro.scenario import Scenario, flow
    return (Scenario.build("campaign-sweep")
            .service("client", image="iperf")
            .service("server", image="iperf")
            .bridge("s0")
            .link("client", "s0", latency="1ms", up=rate)
            .link("s0", "server", latency="1ms", up=rate)
            .workload(flow("client", "server", key="bulk"))
            .deploy(machines=2, seed=seed, duration=5.0))


def _campaign_run(seed: int, params, phase, workdir: str) -> Report:
    from repro.campaign import Campaign

    with phase("build"):
        rates = [1e6 * 1.5 ** index for index in range(int(params["rates"]))]
        seeds = [seed * 100 + index for index in range(int(params["seeds"]))]
        campaign = (Campaign("bench-sweep")
                    .scenario(_shaped_pair)
                    .grid(rate=rates)
                    .seeds(seeds)
                    .backends("kollaps", "baremetal"))
        points = campaign.points()
    with phase("advance"):
        result = campaign.run(jobs=1, store=workdir)
    with phase("collect"):
        aggregate = result.aggregate()
        markdown = aggregate.to_markdown()

    def report() -> Outcome:
        results_path = os.path.join(workdir, "bench-sweep", "results.jsonl")
        with open(results_path, encoding="utf-8") as handle:
            appends = sum(1 for _line in handle)
        checks = [
            ("every campaign point ok", len(result.ok()) == len(points)),
            ("every grid point executed", len(result) == len(points)),
            ("one store record per point", appends == len(points)),
        ]
        return Outcome(work=float(len(result)), ops=0,
                       engines=[item.run.engine for item in result.ok()],
                       digest_parts=[markdown, aggregate.to_csv()],
                       checks=checks,
                       counts={"campaign.points": len(result),
                               "campaign.store_appends": appends})

    return report


@dataclass(frozen=True)
class Workload:
    name: str
    work_unit: str
    load: Callable[[], None]        # the imports, timed as phase.import_s
    run: Callable[..., Report]


WORKLOADS: Dict[str, Workload] = {workload.name: workload for workload in (
    Workload("kv_packet", "ops", _kv_load, _kv_run),
    Workload("bulk_sharing", "flow-seconds", _bulk_load, _bulk_run),
    Workload("scale_free_install", "pairs", _scale_free_load, _install_run),
    Workload("dynamic_churn", "states", _bulk_load, _churn_run),
    Workload("campaign_sweep", "points", _campaign_load, _campaign_run),
)}


def engine_counts(engines) -> Dict[str, int]:
    """Exact counts read from the systems' public attributes, summed."""
    counts = dict.fromkeys((
        "sim.events", "netstack.packets_delivered", "netstack.packets_dropped",
        "netstack.backpressure_events", "tc.netlink_calls",
        "tc.chains_installed", "core.manager.loop_iterations",
        "metadata.wire_bytes", "metadata.messages"), 0)
    for engine in engines:
        counts["sim.events"] += engine.sim.events_dispatched
        plane = engine.dataplane
        for name in ("packets_delivered", "packets_dropped",
                     "backpressure_events"):
            counts[f"netstack.{name}"] += getattr(plane, name, 0)
        for tcal in getattr(engine, "tcals", {}).values():
            counts["tc.netlink_calls"] += tcal.netlink_calls
            counts["tc.chains_installed"] += len(tcal.destinations())
        for manager in getattr(engine, "managers", {}).values():
            counts["core.manager.loop_iterations"] += manager.loops
        for driver in getattr(engine, "drivers", {}).values():
            stats = driver.stats
            counts["metadata.wire_bytes"] += stats.wire_bytes_sent()
            counts["metadata.messages"] += (stats.datagrams_sent
                                            + stats.shared_memory_messages)
    return counts
