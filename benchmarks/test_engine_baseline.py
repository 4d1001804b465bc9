"""Engine performance baselines, measured through the telemetry layer.

Four headline rates anchor the reproduction's performance story:
fair-share solves/sec on the small and large solver problems (the
progressive-filling allocator of §3), cold collapses/sec (all-pairs
shortest paths on a mid-size scale-free topology, memo bypassed),
memoized collapses/sec (the repeat-point path campaign sweeps hit), and
campaign points/sec for a single worker.  The solver, memo and campaign
rates are derived from the telemetry counters the instrumented code
itself maintains — the benchmark doubles as an end-to-end check that the
counters measure what they claim.  The cold collapse rate is timed
directly around ``collapse(memo=False).paths()``: ``collapse`` builds a
shortest-path tree when a lookup first needs it, so the all-pairs cost is
that of asking for the whole table (``collapse_rate_measures`` says so
beside the number).  What a probing experiment pays instead is
``collapse_probe_4000_s``: a cold collapse of Table 4's largest topology
plus the 60 lookups of 30 probe pairs.  Two more rates cover the packet
path, which keeps no telemetry counters (a guard per event would cost
more than the event): bare-kernel events/sec and data-plane sends/sec,
timed directly over a fixed count.  The fluid integrator is timed the
same way: steps/sec with one shaped flow (every campaign point's shape)
and with sixteen on one link (``bulk_sharing``'s), sharing loop off, so
the rate is the step's.

Alongside the rates, the baseline records *checksums* over the solver
allocation and the collapsed path table (bit-deterministic across
machines), and over the order in which the packet-mode kv mesh
dispatches its events.  Rates drift per machine; checksums must not — a
mismatch in review or CI means correctness drift, not a slow runner.
See docs/performance.md.

``REPRO_BENCH_WRITE=1`` refreshes ``BENCH_engine.json`` at the repo
root (checked in, like ``BENCH_dsl.json``) so drift shows up in review
diffs rather than only in CI timings; any other value is taken as a
destination path (CI writes a scratch file and diffs it against the
checked-in baseline with ``benchmarks/compare_bench.py``).

The companion budget test holds the telemetry layer to its contract:
with tracing disabled, an instrumentation guard is a single boolean
branch whose cost stays under 2 % of even the smallest instrumented
unit of real work.
"""

import gc
import hashlib
import json
import os
import random
import sys

from conftest import print_table, run_once

from repro import telemetry
from repro.campaign import Campaign
from repro.core import (FlowDemand, clear_collapse_cache, collapse,
                        rtt_aware_max_min, sharing)
from repro.experiments.fig4 import REGIONS
from repro.netstack.packet import Packet
from repro.scenario import Scenario, flow, resolve_backend
from repro.scenario.topologies import aws_mesh, dumbbell, scale_free
from repro.sim import Simulator
from repro.telemetry import Stopwatch

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# The event-order digest has one implementation, shared with
# tests/test_sim_determinism.py and its golden.
sys.path.insert(0, os.path.join(ROOT, "tests"))
from event_order import kv_event_order  # noqa: E402

MBPS = 1e6
SOLVER_ROUNDS = 200
LARGE_ROUNDS = 100
COLLAPSE_ROUNDS = 4            # each builds the whole 6 320-pair table
MEMO_ROUNDS = 50
COLLAPSE_SIZE = 120
COLLAPSE_RATE_MEASURES = "collapse(memo=False).paths(): every tree and pair"
PROBE_SIZE = 4000             # Table 4's largest; named in the metric's key
PROBE_PAIRS = 30
SMALL_CLIENTS = 12            # 24 flows — the historical baseline problem
LARGE_CLIENTS = 64            # 128 flows — larger than any caller's solve
SIM_EVENTS = 200_000
MESH_ROUNDS = 100             # one packet per chain per round
FLUID_STEPS = 50_000          # 500 simulated seconds at the 10 ms step
FLUID_STEPS_16 = 10_000       # ... and 100 with sixteen flows to integrate
BENCH_PATH = os.path.join(ROOT, "BENCH_engine.json")


def solver_problem(clients=SMALL_CLIENTS):
    """``2 x clients`` flows over a two-level tree.

    Each client contributes an up and a down flow through one private
    access link, one of a few shared trunks and one of a few server
    uplinks — enough sharing to make the progressive filler iterate.
    ``clients=12`` is the historical 24-flow baseline; ``clients=64``
    (128 flows) is larger than any solve the experiments, examples or
    ledger workloads issue (docs/performance.md, "One fair-share filler").
    """
    trunks = max(3, clients // 4)
    servers = max(4, clients // 3)
    capacities = {}
    flows = []
    for client in range(clients):
        access = client                      # one access link per client
        trunk = 2 * clients + client % trunks
        server = 2 * clients + trunks + client % servers
        capacities[access] = 50 * MBPS
        capacities[trunk] = 100 * MBPS
        capacities[server] = 50 * MBPS
        rtt = 0.020 + 0.005 * (client % 5)
        flows.append(FlowDemand(f"up{client}", rtt,
                                (access, trunk, server),
                                path_bandwidth=50 * MBPS))
        flows.append(FlowDemand(f"down{client}", rtt,
                                (server, trunk, access),
                                path_bandwidth=50 * MBPS))
    return flows, capacities


def bench_pair(*, rate, seed=0):
    return (Scenario.build("bench_pair")
            .service("a").service("b").bridge("s")
            .link("a", "s", latency="1ms", up=rate)
            .link("s", "b", latency="1ms", up=rate)
            .workload(flow("a", "b", key="bulk"))
            .deploy(machines=2, seed=seed, duration=2.0))


# ---------------------------------------------------------------------------
# Checksums: machine-independent correctness fingerprints.
# ---------------------------------------------------------------------------

def solver_checksum(clients=SMALL_CLIENTS):
    """Digest of the filler's allocation on :func:`solver_problem`.

    The filler is called directly, past the closed form: its float
    arithmetic is IEEE-754 deterministic and its order fixed, so this
    digest is identical on every machine.
    """
    flows, capacities = solver_problem(clients)
    allocation, _ = sharing._progressive_fill(flows, capacities)
    digest = hashlib.blake2b(digest_size=8)
    for key in sorted(allocation):
        digest.update(f"{key}={allocation[key]!r};".encode())
    return digest.hexdigest()


def collapse_checksum(size=COLLAPSE_SIZE, seed=11):
    """Digest of the collapsed path table on the benchmark topology.

    Covers every pair's composed properties and constituent link ids,
    so it pins both Dijkstra's tie-breaking and property composition.
    """
    topology = scale_free(size, seed=seed).compile().topology
    collapsed = collapse(topology, memo=False)
    digest = hashlib.blake2b(digest_size=8)
    paths = sorted(collapsed.paths(),
                   key=lambda path: (path.source, path.destination))
    for path in paths:
        properties = path.properties
        digest.update(
            f"{path.source}>{path.destination}"
            f":{properties.latency!r},{properties.bandwidth!r},"
            f"{properties.loss!r}:{path.link_ids};".encode())
    return digest.hexdigest()


def event_order_checksum():
    """Digest of the kv mesh's dispatched ``(time, priority, seq)`` stream.

    The same value as ``tests/golden/kv_event_order.json``: the kernel's
    ordering contract plus everything the packet path schedules.
    """
    return kv_event_order()[1]


def _sim_events_per_sec():
    """Schedule-and-dispatch rate of the bare kernel: no-op ``after`` + run."""
    sim = Simulator()

    def noop():
        pass

    with Stopwatch() as watch:
        for index in range(SIM_EVENTS):
            sim.after(index * 1e-6, noop)
        sim.run()
    assert sim.events_dispatched == SIM_EVENTS
    return SIM_EVENTS / watch.elapsed


def _packet_sends_per_sec():
    """``KollapsDataPlane.send`` through shaping to delivery.

    The 16-container Figure-4 mesh, one packet per collapsed chain per
    round, drained between rounds so no htb queue fills: the plain send
    path, every packet delivered.  Returns (sends/sec, chains).
    """
    compiled = (aws_mesh(REGIONS, services_per_region=4,
                         service_prefix="node")
                .deploy(machines=4, seed=1,
                        enforce_bandwidth_sharing=False).compile())
    engine = resolve_backend("kollaps").prepare(compiled)
    plane = engine.dataplane
    containers = compiled.topology.container_names()
    chains = [(source, destination) for source in containers
              for destination in containers if source != destination]
    delivered = []
    with Stopwatch() as watch:
        for _ in range(MESH_ROUNDS):
            for source, destination in chains:
                plane.send(Packet(source, destination, 480.0, kind="probe"),
                           delivered.append)
            # Past the longest WAN path, so every packet has landed.
            engine.run(until=engine.sim.now + 0.25)
    sends = MESH_ROUNDS * len(chains)
    assert len(delivered) == plane.packets_delivered == sends
    return sends / watch.elapsed, len(chains)


def _fluid_steps_per_sec(flows, steps):
    """Fluid steps/sec integrating ``flows`` shaped flows over one link.

    A Kollaps engine with the sharing loop off: what runs is the kernel's
    tick, the step and its closed-form solve — one pseudo-link per pair.
    """
    engine = (dumbbell(flows, shared_bandwidth=200 * MBPS)
              .deploy(machines=2, seed=1, enforce_bandwidth_sharing=False)
              .compile().engine())
    for index in range(flows):
        engine.start_flow(index, f"client{index}", f"server{index}",
                          congestion_control="reno" if index % 2 else "cubic")
    with Stopwatch() as watch:
        engine.run(until=(steps - 0.5) * engine.fluid.dt)
    assert len(engine.fluid.series(0)) == steps
    assert all(engine.fluid.throughput(index) > 0 for index in range(flows))
    return steps / watch.elapsed


def _collapse_probe_seconds():
    """Cold collapse of ``scale_free(PROBE_SIZE)`` plus both directions of
    ``PROBE_PAIRS`` random pairs — what one Table-4 point asks of it."""
    topology = scale_free(PROBE_SIZE, seed=PROBE_SIZE).compile().topology
    rng = random.Random(PROBE_SIZE)
    pairs = [rng.sample(topology.container_names(), 2)
             for _ in range(PROBE_PAIRS)]
    with Stopwatch() as watch:
        collapsed = collapse(topology, memo=False)
        answered = [collapsed.path(a, b) and collapsed.path(b, a)
                    for a, b in pairs]
    assert all(answered)
    return watch.elapsed


def _solver_rate(flows, capacities, rounds):
    """(solves/sec, flows/solve), via counters."""
    before = telemetry.metrics.snapshot()
    for _ in range(rounds):
        rtt_aware_max_min(flows, capacities)
    delta = telemetry.metrics.delta_since(before)
    return (delta["sharing.solver_calls"] / delta["sharing.solver_seconds"],
            int(delta["sharing.solver_flows"]
                / delta["sharing.solver_calls"]))


def measure_baselines():
    """All rates in one pass, counters as the ground truth."""
    telemetry.disable()
    telemetry.metrics.clear()
    telemetry.enable()                      # in-memory tracing
    clear_collapse_cache()
    try:
        # The campaign below runs its own (tiny) solves and collapses, so
        # each stage's rate comes from a counter delta taken right after
        # that stage — not from the final totals.
        solves_per_sec, solver_flows = _solver_rate(
            *solver_problem(SMALL_CLIENTS), rounds=SOLVER_ROUNDS)
        large_per_sec, large_flows = _solver_rate(
            *solver_problem(LARGE_CLIENTS), rounds=LARGE_ROUNDS)

        # Cold collapses bypass the memo and build the whole table; the
        # memoized rate then measures the repeat-point path campaigns hit
        # (one miss populates it).
        topology = scale_free(COLLAPSE_SIZE, seed=11).compile().topology
        before = telemetry.metrics.snapshot()
        with Stopwatch() as cold:
            for _ in range(COLLAPSE_ROUNDS):
                collapse(topology, memo=False).paths()
        collapsed = telemetry.metrics.delta_since(before)
        assert collapsed["collapse.trees_built"] == (
            COLLAPSE_ROUNDS * len(topology.services))
        collapse(topology)                  # populate the memo
        before = telemetry.metrics.snapshot()
        for _ in range(MEMO_ROUNDS):
            collapse(topology)
        memoized = telemetry.metrics.delta_since(before)
        assert memoized["collapse.memo_hits"] == MEMO_ROUNDS

        (Campaign("bench")
         .scenario(bench_pair)
         .grid(rate=[1e6, 4e6])
         .seeds(2)
         .backends("kollaps")
         .run(jobs=1))

        snapshot = telemetry.metrics.snapshot()
    finally:
        telemetry.disable()
        telemetry.metrics.clear()
        clear_collapse_cache()

    # The packet path is timed with telemetry off, like production runs.
    # Both loops allocate an event per iteration, so the collector runs
    # often; freezing what this process has built up so far keeps those
    # passes from walking pytest's heap, which would make the rates depend
    # on which tests ran before.
    gc.collect()
    gc.freeze()
    try:
        sim_events_per_sec = _sim_events_per_sec()
        packet_sends_per_sec, mesh_chains = _packet_sends_per_sec()
        fluid_steps_per_sec = _fluid_steps_per_sec(1, FLUID_STEPS)
        fluid_steps_per_sec_16 = _fluid_steps_per_sec(16, FLUID_STEPS_16)
        collapse_probe_s = _collapse_probe_seconds()
    finally:
        gc.unfreeze()

    point_hist = snapshot["campaign.point_seconds"]
    collapses_per_sec = collapsed["collapse.recomputes"] / cold.elapsed
    memo_per_sec = (memoized["collapse.memo_hits"]
                    / memoized["collapse.memo_seconds"])
    return {
        "bench": "engine",
        "solver_flows": solver_flows,
        "fair_share_solves_per_sec": round(solves_per_sec, 1),
        "solver_large_flows": large_flows,
        "fair_share_solves_per_sec_large": round(large_per_sec, 1),
        "solver_checksum": solver_checksum(SMALL_CLIENTS),
        "solver_checksum_large": solver_checksum(LARGE_CLIENTS),
        "collapse_containers": COLLAPSE_SIZE,
        "collapse_pairs": int(collapsed["collapse.pairs"]
                              / collapsed["collapse.recomputes"]),
        "collapse_rate_measures": COLLAPSE_RATE_MEASURES,
        "collapses_per_sec": round(collapses_per_sec, 1),
        "memoized_collapses_per_sec": round(memo_per_sec, 1),
        "collapse_memo_speedup": round(memo_per_sec / collapses_per_sec, 1),
        "collapse_checksum": collapse_checksum(),
        "collapse_probe_4000_s": round(collapse_probe_s, 3),
        "campaign_points": int(
            snapshot["campaign.points"]["value"]),
        "campaign_points_per_sec_per_worker": round(
            point_hist["count"] / point_hist["sum"], 2),
        "sim_events": SIM_EVENTS,
        "sim_events_per_sec": round(sim_events_per_sec, 1),
        "packet_mesh_chains": mesh_chains,
        "packet_sends_per_sec": round(packet_sends_per_sec, 1),
        "fluid_steps": FLUID_STEPS,
        "fluid_steps_per_sec": round(fluid_steps_per_sec, 1),
        "fluid_steps_16": FLUID_STEPS_16,
        "fluid_steps_per_sec_16": round(fluid_steps_per_sec_16, 1),
        "event_order_checksum": event_order_checksum(),
    }


def test_engine_baselines(benchmark):
    results = run_once(benchmark, measure_baselines)
    print_table("engine baselines (telemetry-derived)",
                ["metric", "value"],
                sorted(results.items()))

    # Loose sanity floors: an order of magnitude below any machine this
    # runs on, so only a real regression (or broken counters) trips them.
    assert results["fair_share_solves_per_sec"] > 20.0
    assert results["collapses_per_sec"] > 1.0
    assert results["campaign_points_per_sec_per_worker"] > 0.05
    assert results["campaign_points"] == 4          # 2 rates x 2 seeds
    assert results["solver_flows"] == 24
    assert results["solver_large_flows"] == 2 * LARGE_CLIENTS
    assert results["collapse_pairs"] > 0
    assert results["sim_events_per_sec"] > 20_000
    assert results["packet_sends_per_sec"] > 10_000
    assert results["packet_mesh_chains"] == 16 * 15
    assert results["fluid_steps_per_sec"] > 5_000
    assert results["fluid_steps_per_sec_16"] > 500
    assert results["collapse_probe_4000_s"] < 10.0

    # Memoized collapse at least 3x the cold rate.
    assert results["collapse_memo_speedup"] >= 3.0

    if os.environ.get("REPRO_BENCH_WRITE"):
        destination = os.environ["REPRO_BENCH_WRITE"]
        if destination == "1":
            destination = BENCH_PATH
        with open(destination, "w", encoding="utf-8") as handle:
            json.dump(results, handle, indent=2)
            handle.write("\n")


def test_checked_in_baseline_is_current():
    """BENCH_engine.json must exist, describe this benchmark's shape and
    carry checksums that match a fresh computation.  Rates drift per
    machine; structure, workload and checksums must not."""
    with open(BENCH_PATH, encoding="utf-8") as handle:
        checked_in = json.load(handle)
    assert checked_in["bench"] == "engine"
    assert checked_in["campaign_points"] == 4
    assert checked_in["collapse_containers"] == COLLAPSE_SIZE
    assert checked_in["collapse_rate_measures"] == COLLAPSE_RATE_MEASURES
    assert checked_in["solver_large_flows"] == 2 * LARGE_CLIENTS
    for key in ("fair_share_solves_per_sec",
                "fair_share_solves_per_sec_large",
                "collapses_per_sec", "memoized_collapses_per_sec",
                "campaign_points_per_sec_per_worker",
                "sim_events_per_sec", "packet_sends_per_sec",
                "fluid_steps_per_sec", "fluid_steps_per_sec_16",
                "collapse_probe_4000_s"):
        assert checked_in[key] > 0
    assert checked_in["sim_events"] == SIM_EVENTS
    assert checked_in["fluid_steps"] == FLUID_STEPS
    assert checked_in["fluid_steps_16"] == FLUID_STEPS_16
    # Correctness drift check: a stale checksum means the solver or the
    # collapse changed behaviour without the baseline being refreshed.
    assert checked_in["solver_checksum"] == solver_checksum(SMALL_CLIENTS)
    assert checked_in["solver_checksum_large"] == solver_checksum(
        LARGE_CLIENTS)
    assert checked_in["collapse_checksum"] == collapse_checksum()
    # ... or the kernel or packet path reordered an event.
    assert checked_in["event_order_checksum"] == event_order_checksum()


def test_disabled_overhead_budget(benchmark):
    """A disabled telemetry guard costs <2 % of the smallest real unit.

    The guard is ``telemetry.enabled()`` plus a no-op ``span()`` (one
    branch, shared NullSpan).  The hottest instrumented sites run one
    guard per fair-share solve / collapse / fluid step, so per-guard
    cost against one *small* solve bounds every site's overhead.
    """
    telemetry.disable()
    assert not telemetry.enabled()

    probes = 100_000

    def guard_loop():
        for _ in range(probes):
            if telemetry.enabled():
                raise AssertionError("tracing must stay off")
            telemetry.span("overhead.probe")

    with Stopwatch() as guard_watch:
        run_once(benchmark, guard_loop)
    per_guard = guard_watch.elapsed / probes

    flows, capacities = solver_problem()
    rounds = 50
    with Stopwatch() as solver_watch:
        for _ in range(rounds):
            rtt_aware_max_min(flows, capacities)
    per_solve = solver_watch.elapsed / rounds

    # Four guards per solve is 4x more than any instrumented site runs.
    share = (4 * per_guard) / per_solve
    print_table("disabled-telemetry overhead",
                ["metric", "value"],
                [("per-guard cost", f"{per_guard * 1e9:.0f} ns"),
                 ("per-solve cost", f"{per_solve * 1e6:.1f} us"),
                 ("share at 4 guards/solve", f"{share * 100:.3f} %")])
    assert share < 0.02
