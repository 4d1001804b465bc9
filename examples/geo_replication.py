#!/usr/bin/env python3
"""What-if analysis for a geo-replicated Cassandra deployment (§5.6).

Benchmarks a Cassandra-like cluster (4 replicas in Frankfurt + 4 in
Sydney, RF=2, W=QUORUM / R=ONE, 50/50 YCSB mix) under the measured
EC2 inter-region latencies, then answers Figure 11's question — what if
the Sydney replicas moved to Seoul, halving the inter-region latency? —
by changing one argument of the scenario builder instead of redeploying
a cluster.  Both deployments are plain documents: ``repro scenario
export`` writes either as a ``.scn`` file (``geo_replication.scn`` is
the Sydney one), and ``repro scenario diff`` shows what the one-argument
change moves.

Run:  python examples/geo_replication.py
"""

from repro.scenario import Scenario, YcsbWorkload, diff_scenarios
from repro.scenario.topologies import aws_mesh

DURATION = 30.0


def build_scenario(remote_region: str) -> Scenario:
    """One deployment configuration: the topology and its YCSB load."""
    replicas = [f"cas-{region}-{index}" for index in range(4)
                for region in ("frankfurt", remote_region)]
    return (aws_mesh(["frankfurt", remote_region], services_per_region=5,
                     service_prefix="cas")
            .workload(YcsbWorkload(replicas,
                                   {"cas-frankfurt-4": "cas-frankfurt-0"},
                                   threads=8))
            .deploy(machines=4, seed=11, duration=DURATION,
                    enforce_bandwidth_sharing=False))


SCENARIO = build_scenario("sydney")


def run_deployment(remote_region: str) -> dict:
    """Deploy, load and measure one cluster configuration."""
    ycsb = build_scenario(remote_region).compile().run().metric("ycsb")
    return {"throughput": ycsb.stat("throughput"),
            "read_ms": ycsb.stat("read_latency") * 1e3,
            "update_ms": ycsb.stat("update_latency") * 1e3}


def main() -> None:
    change = diff_scenarios(build_scenario("sydney").compile(),
                            build_scenario("seoul").compile())
    # Most of it renames the remote services; what matters is the
    # inter-region link and the replica set the YCSB load writes to.
    print(f"The one-line change compiles to {len(change)} differences, "
          "among them:")
    for entry in change:
        if entry.kind == "workload" or entry.subject.startswith(
                "br-frankfurt->"):
            print(f"  {entry}")

    print("\nBaseline: Frankfurt + Sydney (290 ms RTT)")
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
    ratio = whatif["update_ms"] / baseline["update_ms"]
    print(f"\nHalving the inter-region latency cut update latency from "
          f"{baseline['update_ms']:.0f} ms to {whatif['update_ms']:.0f} ms "
          f"and raised throughput {speedup:.2f}x — Figure 11's conclusion, "
          f"from a one-line scenario change.")
    assert 0.35 < ratio < 0.7, "what-if shape did not hold"


if __name__ == "__main__":
    main()
