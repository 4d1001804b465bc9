"""Figure 5 — deviation from bare metal for long- and short-lived flows.

Paper: one server, two clients behind a 1 Gb/s switch.  Long-lived iPerf3
flows under Cubic and Reno, and short-lived wrk2 HTTP traffic, run on bare
metal, Kollaps and Mininet; the deviation of measured bandwidth from the
bare-metal baseline stays below ~10 % (long-lived) and ~2 % (short-lived),
with Kollaps generally at least as close as Mininet.

The cross-system fan-out is the campaign's workload × backend grid;
:func:`report` takes the deviations from
:meth:`~repro.scenario.results.ScenarioRun.compare` against the
bare-metal run of the same cell.
"""

from __future__ import annotations

from repro.experiments.base import ExperimentResult, experiment, get_runner, \
    grid_campaign
from repro.scenario import http_load, iperf
from repro.scenario.topologies import star

_DURATION = 15.0
_SEED = 61
GBPS = 1e9

WORKLOADS = ("cubic", "reno", "wrk2")
SYSTEMS = ("baremetal", "kollaps", "mininet")


def point_scenario(*, traffic: str, duration: float = _DURATION,
                   seed: int = _SEED):
    """One Figure-5 scenario builder — the campaign's point factory.

    ``traffic`` names the workload kind (``cubic``/``reno``/``wrk2``);
    the axis is not called ``workload`` because that column name belongs
    to the campaign aggregate's own per-workload rows.
    """
    builder = star(["server", "client1", "client2"],
                   bandwidth=GBPS, latency=0.0005)
    if traffic == "wrk2":
        builder.workload(http_load("client2", "server", connections=100,
                                   key="wrk2"))
    else:
        builder.workload(iperf("client1", "server", duration=duration,
                               congestion_control=traffic, warmup=3.0,
                               key=traffic))
    return builder.deploy(machines=3, seed=seed, duration=duration)


# Workloads × systems at the paper's seed.
campaign = grid_campaign("fig5", point_scenario, seed=_SEED, backends=SYSTEMS,
                         traffic=WORKLOADS, duration=_DURATION)


@experiment("fig5", campaign, duration=6.0)
def report(sweep) -> ExperimentResult:
    # workload -> backend -> the run of one campaign grid cell
    runs = {workload: {system: sweep.run_for(traffic=workload,
                                             backend=system)
                       for system in SYSTEMS}
            for workload in WORKLOADS}

    def deviation(workload: str, name: str) -> float:
        comparison = runs[workload]["baremetal"].compare(runs[workload][name])
        return comparison.deviation(workload)

    result = ExperimentResult(
        exp_id="fig5",
        title="Deviation from bare metal, long- and short-lived flows",
        paper_claim=(
            "Long-lived iPerf3 flows (Cubic and Reno) and short-lived wrk2 "
            "traffic over a 1 Gb/s switch: both Kollaps and Mininet stay "
            "within ~10 % (long) / ~2 % (short) of the bare-metal "
            "bandwidth, with Kollaps generally at least as close."),
        headers=["workload", "baremetal", "kollaps", "mininet",
                 "kollaps dev", "mininet dev"],
        rows=[(workload,
               *(f"{runs[workload][system].metric(workload).value / 1e6:.1f}"
                 " Mb/s" for system in SYSTEMS),
               f"{deviation(workload, 'kollaps'):.2%}",
               f"{deviation(workload, 'mininet'):.2%}")
              for workload in WORKLOADS])
    for congestion_control in ("cubic", "reno"):
        result.check(f"Kollaps within 10 % of bare metal "
                     f"({congestion_control})",
                     deviation(congestion_control, "kollaps") < 0.10)
        result.check(f"Mininet within 10 % of bare metal "
                     f"({congestion_control})",
                     deviation(congestion_control, "mininet") < 0.10)
    result.check("Kollaps close on short-lived wrk2 flows",
                 deviation("wrk2", "kollaps") < 0.10)
    result.check("Mininet close on short-lived wrk2 flows",
                 deviation("wrk2", "mininet") < 0.15)
    return result


run = get_runner("fig5")
