"""Figure 10 — geo-replicated Cassandra throughput/latency on Kollaps.

Paper: 4 replicas in Frankfurt + 4 in Sydney (RF = 2), 4 YCSB clients in
Frankfurt, 50/50 read/update, R = ONE / W = QUORUM.  The EC2 deployment
and the Kollaps emulation produce near-identical throughput-latency
curves: flat latency until the replicas saturate, then a sharp climb.
Here the "EC2" reference is the bare-metal run of the same workload over
the full physical topology; Kollaps is the collapsed emulation.

The Cassandra cluster and its YCSB clients ride a ``custom`` workload
collecting a mapping (throughput plus overall/read/update mean latency),
so the threads × {baremetal, kollaps} grid is an ordinary campaign — and
Figure 11's what-if is this same :func:`point_scenario` with another
``remote_region``.
"""

from __future__ import annotations

from typing import Mapping

from repro.experiments.base import ExperimentResult, experiment, get_runner, \
    grid_campaign
from repro.scenario import custom
from repro.scenario.topologies import aws_mesh
from repro.sim import RngRegistry

THREAD_SWEEP = [1, 4, 8, 16, 32]
SYSTEMS = ("baremetal", "kollaps")
_DURATION = 25.0

# Independent YCSB request streams per backend, as the paper's two
# deployments are independent runs: backend -> RNG stream prefix.
_STREAM_TAGS = {"baremetal": "ycsb:e", "kollaps": "ycsb:k"}


def _mean(values) -> float:
    return sum(values) / len(values) if values else 0.0


def point_scenario(*, threads: int, duration: float,
                   seed: int, remote_region: str = "sydney",
                   stream_tags: Mapping[str, str] = _STREAM_TAGS):
    """Frankfurt + ``remote_region``: 4 replicas each (RF = 2), 4 YCSB
    clients on extra Frankfurt services.

    The YCSB request streams are ``RngRegistry(seed)`` streams named by
    ``stream_tags[backend]`` plus the thread count and client index.
    """
    regions = ("frankfurt", remote_region)

    def install(system):
        from repro.apps import CassandraCluster, YcsbClient
        replicas = [f"cas-{region}-{index}" for index in range(4)
                    for region in regions]
        cluster = CassandraCluster(system.sim, system.dataplane, replicas,
                                   replication_factor=2,
                                   write_consistency=2, read_consistency=1,
                                   service_time=2e-3)
        tag = stream_tags[system.scenario_backend]
        return [YcsbClient(system.sim, system.dataplane,
                           f"cas-frankfurt-{4 + index}", cluster,
                           f"cas-frankfurt-{index}",
                           threads=max(1, threads // 4), read_fraction=0.5,
                           rng=RngRegistry(seed).stream(
                               f"{tag}{threads}:{index}"))
                for index in range(4)]

    def collect(system, until, clients):
        stats = [client.stats for client in clients]
        return {
            "throughput": sum(s.throughput(until) for s in stats),
            "latency": _mean(sorted(latency for s in stats
                                    for latency in s.all_latencies())),
            "read_latency": _mean([latency for s in stats
                                   for latency in s.read_latencies]),
            "update_latency": _mean([latency for s in stats
                                     for latency in s.update_latencies]),
        }

    return (aws_mesh(list(regions), services_per_region=8,
                     service_prefix="cas")
            .workload(custom("ycsb", install, collect=collect))
            .deploy(machines=4, seed=seed, duration=duration,
                    enforce_bandwidth_sharing=False))


# Offered load × the two deployments.
campaign = grid_campaign("fig10", point_scenario, seed=111,
                         backends=SYSTEMS, threads=THREAD_SWEEP,
                         duration=_DURATION)


@experiment("fig10", campaign, duration=10.0)
def report(sweep) -> ExperimentResult:
    # (deployment, threads) -> (ops/s, mean latency s)
    curve = {}
    for threads in THREAD_SWEEP:
        for name, system in zip(("ec2", "kollaps"), SYSTEMS):
            ycsb = sweep.run_for(threads=threads,
                                 backend=system).metric("ycsb")
            curve[(name, threads)] = (ycsb.stat("throughput"),
                                      ycsb.stat("latency"))
    result = ExperimentResult(
        exp_id="fig10",
        title="Cassandra throughput/latency, EC2(baremetal) vs Kollaps",
        paper_claim=(
            "Geo-replicated Cassandra (Frankfurt + Sydney, W=QUORUM, "
            "R=ONE, 50/50 mix) produces near-identical throughput-latency "
            "curves on EC2 and on Kollaps: flat latency until the "
            "replicas saturate, then a sharp climb, with only slight "
            "differences after the turning point."),
        headers=["threads", "EC2 ops/s", "EC2 lat ms", "Kollaps ops/s",
                 "Kollaps lat ms"],
        rows=[(threads,
               f"{curve[('ec2', threads)][0]:.0f}",
               f"{curve[('ec2', threads)][1] * 1e3:.1f}",
               f"{curve[('kollaps', threads)][0]:.0f}",
               f"{curve[('kollaps', threads)][1] * 1e3:.1f}")
              for threads in THREAD_SWEEP])
    for threads in THREAD_SWEEP:
        ec2_tp, ec2_lat = curve[("ec2", threads)]
        kol_tp, kol_lat = curve[("kollaps", threads)]
        result.check(f"throughput matches at {threads} threads",
                     abs(kol_tp - ec2_tp) <= 0.12 * ec2_tp)
        result.check(f"latency matches at {threads} threads",
                     abs(kol_lat - ec2_lat) <= 0.15 * ec2_lat)
    result.check("throughput grows with offered load before saturation",
                 curve[("kollaps", 16)][0] > 2.5 * curve[("kollaps", 1)][0])
    result.check("latency eventually climbs (the hockey stick)",
                 curve[("kollaps", 32)][1] >= curve[("kollaps", 1)][1] * 0.9)
    return result


run = get_runner("fig10")
