#!/usr/bin/env python3
"""What-if analysis for a geo-replicated Cassandra deployment (§5.6).

Benchmarks a Cassandra-like cluster (4 replicas in Frankfurt + 4 in
Sydney, RF=2, W=QUORUM / R=ONE, 50/50 YCSB mix) under the measured
EC2 inter-region latencies, then answers Figure 11's question — what if
the Sydney replicas moved to Seoul, halving the inter-region latency? —
by changing one argument of the scenario builder instead of redeploying
a cluster.

Run:  python examples/geo_replication.py
"""

from repro.apps import CassandraCluster, YcsbClient
from repro.scenario import Scenario
from repro.scenario.topologies import aws_mesh
from repro.sim import RngRegistry


def build_scenario(remote_region: str, rtt_scale: float = 1.0) -> Scenario:
    """One deployment configuration as a Scenario builder."""
    return (aws_mesh(["frankfurt", remote_region], services_per_region=5,
                     service_prefix="cas", rtt_scale=rtt_scale)
            .deploy(machines=4, seed=11, enforce_bandwidth_sharing=False))


SCENARIO = build_scenario("sydney")


def run_deployment(remote_region: str, rtt_scale: float = 1.0):
    """Deploy, load and measure one cluster configuration."""
    engine = build_scenario(remote_region, rtt_scale).compile().engine()
    replicas = [f"cas-{region}-{index}" for index in range(4)
                for region in ("frankfurt", remote_region)]
    cluster = CassandraCluster(engine.sim, engine.dataplane, replicas,
                               replication_factor=2, write_consistency=2,
                               read_consistency=1)
    client = YcsbClient(engine.sim, engine.dataplane, "cas-frankfurt-4",
                        cluster, "cas-frankfurt-0", threads=8,
                        read_fraction=0.5,
                        rng=RngRegistry(11).stream("ycsb"))
    engine.run(until=30.0)

    def mean(values):
        return sum(values) / len(values) if values else float("nan")

    return {
        "throughput": client.stats.ops_per_s(30.0),
        "read_ms": mean(client.reads.latencies) * 1e3,
        "update_ms": mean(client.updates.latencies) * 1e3,
    }


def main() -> None:
    print("Baseline: Frankfurt + Sydney (290 ms RTT)")
    baseline = run_deployment("sydney")
    print(f"  throughput {baseline['throughput']:7.1f} ops/s   "
          f"read {baseline['read_ms']:6.1f} ms   "
          f"update {baseline['update_ms']:6.1f} ms")

    print("What-if: move the remote replicas to Seoul (145 ms RTT)")
    whatif = run_deployment("seoul")
    print(f"  throughput {whatif['throughput']:7.1f} ops/s   "
          f"read {whatif['read_ms']:6.1f} ms   "
          f"update {whatif['update_ms']:6.1f} ms")

    speedup = whatif["throughput"] / baseline["throughput"]
    print(f"\nHalving the inter-region latency cut update latency from "
          f"{baseline['update_ms']:.0f} ms to {whatif['update_ms']:.0f} ms "
          f"and raised throughput {speedup:.2f}x — Figure 11's conclusion, "
          f"from a one-line scenario change.")


if __name__ == "__main__":
    main()
