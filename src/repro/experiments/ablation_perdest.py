"""Ablation — per-destination vs per-flow bandwidth enforcement (§3).

Kollaps "enforces bandwidth sharing per destination, not per flow", which
(together with only-active-flows reporting) is why Figure 3's metadata
traffic is flat in the number of containers.  This ablation measures the
metadata volume with per-destination aggregation (one record per container
pair, what Kollaps ships) against hypothetical per-flow reporting (one
record per TCP connection), for a memcached-style workload where clients
hold many connections to one server.

One campaign point drives real traffic so the engine's own
(per-destination) metadata volume is measured, not synthesized — the
run's metadata bytes over its length, as Figure 3 reads them; the
hypothetical per-flow encoding of the same instant is priced in
:func:`report`.
"""

from __future__ import annotations

from repro.experiments.base import ExperimentResult, experiment, grid_campaign
from repro.metadata.encoding import FlowRecord, MetadataMessage, encoded_size
from repro.scenario import flow
from repro.scenario.topologies import star

CONNECTIONS_PER_CLIENT = 10
CLIENTS = 8
_DURATION = 5.0


def point_scenario(*, duration: float, seed: int):
    """Eight clients of one server; each client's many connections
    aggregate into ONE shaped flow."""
    builder = star(["server"] + [f"c{i}" for i in range(CLIENTS)],
                   bandwidth=1e9, latency=0.002)
    for index in range(CLIENTS):
        builder.workload(flow(f"c{index}", "server", rate=20e6,
                              key=f"f{index}"))
    return builder.deploy(machines=2, seed=seed, duration=duration)


# A single measured point.
campaign = grid_campaign("ablation-perdest", point_scenario, seed=141,
                         duration=_DURATION)


@experiment("ablation-perdest", campaign, duration=2.0)
def report(sweep) -> ExperimentResult:
    # One record per container pair (what Kollaps ships) against one per
    # TCP connection, for the same instant.
    per_dest_message = MetadataMessage(sender=0, flows=tuple(
        FlowRecord(i, CLIENTS, 20e6, (0, 1)) for i in range(CLIENTS)))
    per_flow_message = MetadataMessage(sender=0, flows=tuple(
        FlowRecord(i, CLIENTS, 2e6, (0, 1))
        for i in range(CLIENTS)
        for _connection in range(CONNECTIONS_PER_CLIENT)))
    run = sweep.run_for()
    results = {
        "measured_rate": run.metadata_bytes / run.until,
        "per_dest_bytes": encoded_size(per_dest_message),
        "per_flow_bytes": encoded_size(per_flow_message),
    }
    result = ExperimentResult(
        exp_id="ablation-perdest",
        title="Ablation: per-destination vs per-flow metadata",
        paper_claim=(
            "Kollaps enforces bandwidth sharing per destination, not per "
            "flow (§3); with many connections per container pair, per-flow "
            "reporting would multiply the metadata volume by the "
            "connection count."),
        headers=["metric", "value"],
        rows=[("measured wire rate (per-destination design)",
               f"{results['measured_rate'] / 1e3:.1f} KB/s"),
              ("report size, per-destination",
               f"{results['per_dest_bytes']} B"),
              (f"report size, per-flow ({CONNECTIONS_PER_CLIENT} "
               "conns/client)", f"{results['per_flow_bytes']} B")])
    result.check(
        "per-flow reporting an order of magnitude heavier",
        results["per_flow_bytes"]
        >= results["per_dest_bytes"] * CONNECTIONS_PER_CLIENT * 0.9)
    result.check("per-destination metadata flows on the wire",
                 results["measured_rate"] > 0)
    return result
