#!/usr/bin/env python3
"""The what-if use-case (§5.6, Figure 11): move a datacenter, re-measure.

The paper's closing demonstration: a geo-replicated Cassandra deployment
(4 replicas in Frankfurt + 4 in Sydney, W=QUORUM / R=ONE, 50/50 mix) is
re-evaluated under the hypothetical "what if the remote replicas moved to
Seoul?" — in Kollaps a one-argument change to the scenario builder instead
of a costly real redeployment.  Update latency halves with the RTT; reads,
already local, barely move.

Run:  python examples/whatif_cassandra.py
"""

from repro.apps import CassandraCluster, YcsbClient
from repro.scenario import Scenario
from repro.scenario.topologies import aws_mesh
from repro.sim import RngRegistry

DURATION = 20.0


def build_scenario(remote_region: str) -> Scenario:
    return (aws_mesh(["frankfurt", remote_region], services_per_region=8,
                     service_prefix="cas")
            .deploy(machines=4, seed=2024, enforce_bandwidth_sharing=False,
                    duration=DURATION))


SCENARIO = build_scenario("sydney")


def benchmark_deployment(remote_region: str) -> dict:
    """Deploy Frankfurt + ``remote_region`` and run the YCSB mix."""
    engine = build_scenario(remote_region).compile().engine()
    replicas = [f"cas-{region}-{index}" for index in range(4)
                for region in ("frankfurt", remote_region)]
    cluster = CassandraCluster(engine.sim, engine.dataplane, replicas,
                               replication_factor=2, write_consistency=2,
                               read_consistency=1, service_time=2e-3)
    rng = RngRegistry(2024)
    clients = [YcsbClient(engine.sim, engine.dataplane,
                          f"cas-frankfurt-{4 + index}", cluster,
                          f"cas-frankfurt-{index}", threads=4,
                          read_fraction=0.5,
                          rng=rng.stream(f"ycsb:{remote_region}:{index}"))
               for index in range(4)]
    engine.run(until=DURATION)
    reads = [l for c in clients for l in c.reads.latencies]
    updates = [l for c in clients for l in c.updates.latencies]
    return {
        "ops": sum(c.stats.ops_per_s(DURATION) for c in clients),
        "read_ms": 1e3 * sum(reads) / len(reads),
        "update_ms": 1e3 * sum(updates) / len(updates),
    }


def main() -> None:
    print("geo-replicated Cassandra, Frankfurt clients, W=QUORUM R=ONE\n")
    original = benchmark_deployment("sydney")
    whatif = benchmark_deployment("seoul")

    print(f"{'':>12}  {'ops/s':>8}  {'read ms':>8}  {'update ms':>10}")
    print(f"{'Sydney':>12}  {original['ops']:8.0f}  "
          f"{original['read_ms']:8.1f}  {original['update_ms']:10.1f}")
    print(f"{'Seoul':>12}  {whatif['ops']:8.0f}  "
          f"{whatif['read_ms']:8.1f}  {whatif['update_ms']:10.1f}")

    ratio = whatif["update_ms"] / original["update_ms"]
    print(f"\nupdate latency ratio (Seoul/Sydney): {ratio:.2f}"
          " — the halved RTT shows up directly in the quorum writes")
    assert 0.35 < ratio < 0.7, "what-if shape did not hold"


if __name__ == "__main__":
    main()
