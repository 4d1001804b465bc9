"""Figure 6 — connection-per-request HTTP: Mininet collapses under load.

Paper: an HTTP server behind a 100 Mb/s link serves 1/2/4/8 concurrent
curl clients (~64 KB per request, fresh TCP connection every time).  Bare
metal and Kollaps scale near-linearly with client count; Mininet's
throughput falls behind as its switches buckle under per-connection state.

Like Figure 5, the cross-system fan-out is the campaign's client-count
× backend grid; its deterministic ``aggregate().to_markdown()`` table is
pinned by a golden fixture in ``tests/golden/fig6_aggregate.md``, and
:func:`report` reads the same headline throughputs.
"""

from __future__ import annotations

from repro.experiments.base import ExperimentResult, experiment, grid_campaign
from repro.scenario import curl_swarm
from repro.scenario.topologies import star

CLIENT_COUNTS = [1, 2, 4, 8]
SYSTEMS = ("baremetal", "kollaps", "mininet")
_DURATION = 20.0
_SEED = 71


def point_scenario(*, clients: int, duration: float = _DURATION,
                   seed: int = _SEED):
    """One Figure-6 scenario builder — the campaign's point factory."""
    sources = [f"c{i}" for i in range(clients)]
    return (star(["server"] + sources, bandwidth=100e6, latency=0.005)
            .workload(curl_swarm(sources, "server", key="curl"))
            .deploy(machines=2, seed=seed, duration=duration))


# Client counts × systems at the paper's seed.
campaign = grid_campaign("fig6", point_scenario, seed=_SEED, backends=SYSTEMS,
                         clients=CLIENT_COUNTS, duration=_DURATION)


@experiment("fig6", campaign, duration=12.0)
def report(sweep) -> ExperimentResult:
    results = {(system, clients):
               sweep.run_for(clients=clients, backend=system)
               .metric("curl").value
               for clients in CLIENT_COUNTS for system in SYSTEMS}
    result = ExperimentResult(
        exp_id="fig6",
        title="HTTP throughput, connection-per-request curl clients",
        paper_claim=(
            "With 1 to 8 curl clients (fresh TCP connection per ~64 KB "
            "request) over a 100 Mb/s link, Kollaps tracks the bare-metal "
            "throughput at every load level while Mininet fails to keep "
            "up as the client count grows."),
        headers=["clients", "baremetal Mb/s", "kollaps Mb/s",
                 "mininet Mb/s"],
        rows=[(clients,
               f"{results[('baremetal', clients)] / 1e6:.1f}",
               f"{results[('kollaps', clients)] / 1e6:.1f}",
               f"{results[('mininet', clients)] / 1e6:.1f}")
              for clients in CLIENT_COUNTS])
    for clients in CLIENT_COUNTS:
        baremetal = results[("baremetal", clients)]
        kollaps = results[("kollaps", clients)]
        result.check(f"Kollaps tracks bare metal at {clients} client(s)",
                     abs(kollaps - baremetal) <= 0.15 * baremetal)
    result.check("bare metal scales with clients (8 clients > 4x 1 client)",
                 results[("baremetal", 8)] > 4 * results[("baremetal", 1)])
    result.check("Mininet lags visibly at 8 clients",
                 results[("mininet", 8)] < 0.8 * results[("baremetal", 8)])
    gap_low = results[("mininet", 1)] / results[("baremetal", 1)]
    gap_high = results[("mininet", 8)] / results[("baremetal", 8)]
    result.check("the Mininet gap widens with load (collapse signature)",
                 gap_high < gap_low)
    return result
