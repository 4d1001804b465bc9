"""Figure 9 — reproducing the BFT-SMaRt vs Wheat geo-replication study.

Paper: one replica + one client per region (Virginia, Oregon, Ireland,
São Paulo, Sydney), replicated counter, leader in Virginia.  The figure
shows 50th/90th-percentile client latency per region, original EC2 run
(left) vs Kollaps (right): Kollaps reproduces the EC2 results within 7.3 %
(Wheat, Ireland 90th) and 2.7 % (BFT-SMaRt).  The qualitative structure:
Wheat beats BFT-SMaRt in every region, and remote clients (São Paulo,
Sydney) pay the most.

The protocol is the campaign's grid axis; each point deploys the replicas
and the five regional clients as one ``smr`` workload, which collects
every client's percentiles as a mapping that :func:`report` reads back
region by region.
"""

from __future__ import annotations

from repro.experiments.base import ExperimentResult, experiment, grid_campaign
from repro.scenario import SmrWorkload
from repro.scenario.topologies import aws_mesh

REGIONS = ["virginia", "oregon", "ireland", "saopaulo", "sydney"]
PROTOCOLS = ("bftsmart", "wheat")
_OPERATIONS = 60


def point_scenario(*, protocol: str, operations: int, seed: int):
    """One protocol's deployment: a replica and a client per region,
    the leader in Virginia."""
    return (aws_mesh(REGIONS, services_per_region=2, service_prefix="n",
                     jitter_ms=2.0)
            .workload(SmrWorkload([f"n-{region}-0" for region in REGIONS],
                                  [f"n-{region}-1" for region in REGIONS],
                                  protocol=protocol, operations=operations))
            .deploy(machines=5, seed=seed, duration=180.0,
                    enforce_bandwidth_sharing=False))


# The two protocols on the same geo-topology.
campaign = grid_campaign("fig9", point_scenario, seed=101,
                         protocol=PROTOCOLS, operations=_OPERATIONS)


@experiment("fig9", campaign, operations=25)
def report(sweep) -> ExperimentResult:
    runs = {protocol: sweep.run_for(protocol=protocol)
            for protocol in PROTOCOLS}
    operations = runs["bftsmart"].params["operations"]

    def stat(protocol: str, region: str, name: str) -> float:
        return runs[protocol].metric(f"smr:{protocol}").stat(
            f"n-{region}-1_{name}")

    def latency(protocol: str, region: str, percentile: int) -> float:
        return stat(protocol, region, f"p{percentile}")

    rows = [(region,
             f"{latency('bftsmart', region, 50) * 1e3:.0f}",
             f"{latency('bftsmart', region, 90) * 1e3:.0f}",
             f"{latency('wheat', region, 50) * 1e3:.0f}",
             f"{latency('wheat', region, 90) * 1e3:.0f}")
            for region in REGIONS]
    result = ExperimentResult(
        exp_id="fig9",
        title="BFT-SMaRt vs Wheat client latency percentiles (ms)",
        paper_claim=(
            "Replicated counter over 5 AWS regions, leader in Virginia.  "
            "Kollaps reproduces the original EC2 latencies within 7.3 % "
            "(Wheat) / 2.7 % (BFT-SMaRt); Wheat's weighted quorums beat "
            "BFT-SMaRt in every region, and clients far from the quorum "
            "(São Paulo, Sydney) pay the most."),
        headers=["client region", "BFT p50", "BFT p90", "Wheat p50",
                 "Wheat p90"],
        rows=rows)
    for region in REGIONS:
        result.check(
            f"all {region} operations completed",
            stat("bftsmart", region, "completed") == operations)
        result.check(f"Wheat beats BFT-SMaRt in {region}",
                     latency("wheat", region, 50)
                     < latency("bftsmart", region, 50))
    for protocol in PROTOCOLS:
        p50 = {region: latency(protocol, region, 50) for region in REGIONS}
        result.check(f"distance ordering holds for {protocol}",
                     p50["virginia"] < p50["saopaulo"]
                     < p50["sydney"] * 1.5)
        result.check(f"sydney pays more than oregon ({protocol})",
                     p50["sydney"] > p50["oregon"])
    result.check("latencies in the figure's range (50-600 ms)",
                 0.05 < latency("bftsmart", "virginia", 50) < 0.6)
    return result
