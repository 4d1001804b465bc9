"""Figure 7 — mixed long- and short-lived flows across three hosts.

Paper: host 1 runs an HTTP server and an iPerf3 client, host 2 runs a wrk2
client against host 1, host 3 runs the iPerf3 server.  The long-lived flow
runs for the whole experiment; the wrk2 client is active only in the
middle third.  Kollaps and Mininet both stay within a few percent of bare
metal on each host's measured bandwidth, with a spike at the transitions.

The whole mixed workload is one scenario fanned across the three
backends; :func:`report` takes the per-phase bandwidths as window means
over each run's stored throughput series.
"""

from __future__ import annotations

from typing import Dict

from repro.experiments.base import ExperimentResult, experiment, grid_campaign
from repro.scenario import ScenarioRun, flow, http_load
from repro.scenario.topologies import star

# The experiment is 6 minutes in the paper; scaled 6x (phases of 20 s).
_PHASE = 20.0
GBPS = 1e9

METRICS = ["long_phase1", "long_phase2", "long_phase3", "short_phase2"]
SYSTEMS = ("baremetal", "kollaps", "mininet")


def point_scenario(*, phase: float, seed: int):
    """The three-host mix: the long flow throughout, wrk2 in phase 2."""
    return (star(["host1", "host2", "host3"],
                 bandwidth=GBPS, latency=0.0005)
            .workload(flow("host1", "host3", key="iperf"),
                      http_load("host2", "host1", connections=100,
                                start=phase, stop=2 * phase, key="wrk2"))
            .deploy(machines=3, seed=seed, duration=3 * phase))


# One scenario × the three systems.
campaign = grid_campaign("fig7", point_scenario, seed=81, backends=SYSTEMS,
                         phase=_PHASE)


def phase_metrics(run: ScenarioRun) -> Dict[str, float]:
    phase = run.params["phase"]
    long_flow = run.metric("iperf")
    return {
        "long_phase1": long_flow.mean_throughput(2.0, phase),
        "long_phase2": long_flow.mean_throughput(phase, 2 * phase),
        "long_phase3": long_flow.mean_throughput(2 * phase + 2, 3 * phase),
        "short_phase2": run.metric("wrk2").value,
    }


@experiment("fig7", campaign, phase=12.0)
def report(sweep) -> ExperimentResult:
    results = {system: phase_metrics(sweep.run_for(backend=system))
               for system in SYSTEMS}

    def deviation(name: str, metric: str) -> float:
        return abs(1.0 - results[name][metric] / results["baremetal"][metric])

    result = ExperimentResult(
        exp_id="fig7",
        title="Mixed long- and short-lived flows, bandwidth per phase",
        paper_claim=(
            "An iPerf3 flow runs for the whole experiment while a wrk2 "
            "client is active only in the middle third.  On each of the "
            "three hosts, Kollaps and Mininet stay mostly below 5 % "
            "deviation from bare metal, with spikes only at the "
            "transitions."),
        headers=["metric", "baremetal", "kollaps", "mininet",
                 "kollaps dev", "mininet dev"],
        rows=[(metric,
               f"{results['baremetal'][metric] / 1e6:.1f}",
               f"{results['kollaps'][metric] / 1e6:.1f}",
               f"{results['mininet'][metric] / 1e6:.1f}",
               f"{deviation('kollaps', metric):.2%}",
               f"{deviation('mininet', metric):.2%}")
              for metric in METRICS])
    for metric in METRICS:
        result.check(f"Kollaps within 12 % of bare metal on {metric}",
                     deviation("kollaps", metric) < 0.12)
        result.check(f"Mininet within 15 % of bare metal on {metric}",
                     deviation("mininet", metric) < 0.15)
    result.check("the long flow keeps most of the gigabit in phase 2",
                 results["baremetal"]["long_phase2"] > 0.5 * GBPS)
    return result
