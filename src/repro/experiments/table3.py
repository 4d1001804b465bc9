"""Table 3 — jitter-shaping accuracy against measured AWS links.

Paper: for each of 12 regions (from us-east-1), a link carries the
measured EC2 latency and jitter; 10 000 pings then measure the emulated
jitter.  Kollaps tracks the configured values closely (overall MSE between
observed and emulated jitter of 0.2029 ms^2, emulated slightly above
measured because of container-networking noise).

One campaign point: the star of twelve region links with one ``ping``
workload per destination; :func:`report` reads each probe's ``jitter``
statistic.
"""

from __future__ import annotations

from repro.experiments.base import ExperimentResult, experiment, get_runner, \
    grid_campaign
from repro.scenario import ping
from repro.scenario.topologies import (
    AWS_REGION_LATENCY_FROM_US_EAST_1,
    aws_star,
)

_PINGS = 3000  # the paper uses 10 000; jitter stabilizes well before
_INTERVAL = 0.002


def point_scenario(*, pings: int, seed: int):
    """The us-east-1 probe pinging every destination region at once."""
    builder = aws_star()
    for region in AWS_REGION_LATENCY_FROM_US_EAST_1:
        builder.workload(ping("probe", f"target-{region}", count=pings,
                              interval=_INTERVAL, key=region))
    return builder.deploy(machines=2, seed=seed,
                          enforce_bandwidth_sharing=False,
                          duration=pings * _INTERVAL + 2.0)


# A single point: twelve concurrent probes.
campaign = grid_campaign("table3", point_scenario, seed=31, pings=_PINGS)


@experiment("table3", campaign, pings=800)
def report(sweep) -> ExperimentResult:
    run = sweep.run_for()
    jitter_ms = {region: run.metric(region).stat("jitter") * 1e3
                 for region in AWS_REGION_LATENCY_FROM_US_EAST_1}
    rows = []
    squared_error = 0.0
    for region, (latency_ms, ec2_jitter_ms) in \
            AWS_REGION_LATENCY_FROM_US_EAST_1.items():
        squared_error += (jitter_ms[region] - ec2_jitter_ms) ** 2
        rows.append((region, f"{latency_ms:.0f}", f"{ec2_jitter_ms:.4f}",
                     f"{jitter_ms[region]:.4f}"))
    mse = squared_error / len(AWS_REGION_LATENCY_FROM_US_EAST_1)
    rows.append(("MSE (paper: 0.2029)", "", "", f"{mse:.4f}"))

    result = ExperimentResult(
        exp_id="table3",
        title="Jitter shaping accuracy vs AWS inter-region links (ms)",
        paper_claim=(
            "Emulated jitter tracks the measured EC2 jitter for all 12 "
            "region pairs, consistently slightly above it; the overall "
            "mean squared error is 0.2029 ms^2."),
        headers=["destination", "latency", "EC2 jitter", "emulated jitter"],
        rows=rows)
    for region, (_, ec2_jitter_ms) in \
            AWS_REGION_LATENCY_FROM_US_EAST_1.items():
        result.check(
            f"emulated jitter within 20 % of configured for {region}",
            abs(jitter_ms[region] - ec2_jitter_ms) <= 0.20 * ec2_jitter_ms)
    result.check("overall MSE in the paper's ballpark (< 0.25 ms^2)",
                 mse < 0.25)
    return result


run = get_runner("table3")
