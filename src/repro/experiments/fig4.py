"""Figure 4 — memcached throughput is invariant to physical distribution.

Paper: a 4-region geo-topology with one memcached server and three memtier
clients per region (each server handles two local clients and one remote),
deployed over 1, 2, 4, 8 and 16 physical hosts.  Aggregate client
throughput stays flat as hosts are added (left plot), and per-host
metadata traffic stays in the tens of KB/s (right plot).

The hosts × connections fan-out is the campaign grid; each region's
server and clients are one ``memtier`` workload, and :func:`report` sums
their ops/s and reads the per-host metadata rate off each run's
provenance.
"""

from __future__ import annotations

from repro.experiments.base import ExperimentResult, experiment, get_runner, \
    grid_campaign
from repro.scenario import MemtierWorkload
from repro.scenario.topologies import aws_mesh

REGIONS = ["virginia", "oregon", "ireland", "saopaulo"]
HOSTS = [1, 2, 4, 8, 16]
_DURATION = 10.0
_SEED = 51


def point_scenario(*, hosts: int, connections: int,
                   duration: float = _DURATION, seed: int = _SEED):
    """One Figure-4 scenario builder — the campaign's point factory."""
    builder = aws_mesh(REGIONS, services_per_region=4, service_prefix="node")
    for index, region in enumerate(REGIONS):
        # Two local clients plus one from the next region over.
        builder.workload(MemtierWorkload(
            f"node-{region}-0",
            [f"node-{region}-1", f"node-{region}-2",
             f"node-{REGIONS[(index + 1) % len(REGIONS)]}-3"],
            connections=connections))
    return builder.deploy(machines=hosts, seed=seed, duration=duration)


# Host counts × connections per client.
campaign = grid_campaign("fig4", point_scenario, seed=_SEED, hosts=HOSTS,
                         connections=[1, 10], duration=_DURATION)


@experiment("fig4", campaign, duration=4.0)
def report(sweep) -> ExperimentResult:
    # (hosts, connections) -> (aggregate ops/s, per-host metadata B/s)
    results = {}
    for hosts in HOSTS:
        for connections in (1, 10):
            run = sweep.run_for(hosts=hosts, connections=connections)
            ops = sum(run.metric(f"memtier:node-{region}-0").value
                      for region in REGIONS)
            results[(hosts, connections)] = (
                ops, run.metadata_bytes / run.until / hosts)
    result = ExperimentResult(
        exp_id="fig4",
        title="memcached aggregate throughput and metadata per host",
        paper_claim=(
            "Aggregate throughput of the twelve memtier clients is "
            "consistent whether the emulation runs on 1, 2, 4, 8 or 16 "
            "physical hosts, for both 1 and 10 connections per client; "
            "per-host metadata traffic grows with hosts but stays "
            "negligible (< 30 KB/s)."),
        headers=["hosts", "ops/s (1 conn)", "ops/s (10 conn)",
                 "metadata/host KB/s (1)", "metadata/host KB/s (10)"],
        rows=[(hosts,
               f"{results[(hosts, 1)][0]:.0f}",
               f"{results[(hosts, 10)][0]:.0f}",
               f"{results[(hosts, 1)][1] / 1e3:.1f}",
               f"{results[(hosts, 10)][1] / 1e3:.1f}")
              for hosts in HOSTS])
    for connections in (1, 10):
        rates = [results[(hosts, connections)][0] for hosts in HOSTS]
        for hosts, rate in zip(HOSTS[1:], rates[1:]):
            result.check(
                f"throughput flat at {hosts} hosts ({connections} conn)",
                abs(rate - rates[0]) <= 0.10 * rates[0])
    result.check("10 connections per client beat 1 by > 2x",
                 results[(16, 10)][0] > results[(16, 1)][0] * 2)
    for hosts in HOSTS[1:]:
        result.check(f"metadata per host modest at {hosts} hosts",
                     results[(hosts, 10)][1] < 50e3)
    return result


run = get_runner("fig4")
