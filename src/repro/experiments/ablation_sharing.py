"""Ablations on the bandwidth-sharing design (§3 design choices).

Three knobs the paper's design fixes, evaluated on the §5.4 topology:

1. **RTT-aware vs plain max-min** — dropping the 1/RTT weights collapses
   the 23.08/26.92 split of Figure 8's two-flow stage to 25/25, i.e. the
   emulation would no longer mimic TCP Reno's RTT bias.
2. **Exact fixed point vs the literal two-step heuristic** — one
   redistribution pass is exact on most stages but misallocates when
   surplus must cascade across two bottlenecks (the five-flow stage).
3. **Congestion loss injection on/off** — §3 "Congestion": without netem
   loss injection the emulation cannot converge TCP flows down when the
   topology shrinks mid-flow, because htb back-pressure alone gives the
   congestion-control algorithm nothing to react to.

The first two are closed-form solver comparisons :func:`report` evaluates
directly; the third is the campaign — one shrinking-link scenario swept
over the ``congestion_sensitivity`` engine tunable.
"""

from __future__ import annotations

from typing import Dict

from repro.core import (
    FlowDemand,
    paper_two_step_shares,
    rtt_aware_max_min,
)
from repro.experiments.base import ExperimentResult, experiment, get_runner, \
    grid_campaign
from repro.netstack.plane import BULK_PLANE
from repro.scenario import custom, flow
from repro.scenario.topologies import throttling
from repro.topology import DynamicEvent, EventAction

MBPS = 1e6
_DURATION = 20.0

CAPACITIES = {0: 50 * MBPS, 1: 50 * MBPS, 6: 50 * MBPS, 7: 100 * MBPS}
TWO_FLOWS = [
    FlowDemand("c1", 0.070, (0, 6, 7), path_bandwidth=50 * MBPS),
    FlowDemand("c2", 0.060, (1, 6, 7), path_bandwidth=50 * MBPS),
]

FIVE_FLOWS = [
    FlowDemand("c1", 0.070, (0, 6, 7), path_bandwidth=50 * MBPS),
    FlowDemand("c2", 0.060, (1, 6, 7), path_bandwidth=50 * MBPS),
    FlowDemand("c3", 0.060, (2, 6, 7), path_bandwidth=10 * MBPS),
    FlowDemand("c4", 0.050, (3, 7), path_bandwidth=50 * MBPS),
    FlowDemand("c5", 0.040, (4, 7), path_bandwidth=50 * MBPS),
]

FIVE_FLOW_CAPACITIES = {**CAPACITIES, 2: 10 * MBPS, 3: 50 * MBPS,
                        4: 50 * MBPS}


def rtt_weight_comparison() -> Dict[str, Dict[str, float]]:
    weighted = rtt_aware_max_min(TWO_FLOWS, CAPACITIES)
    flat = rtt_aware_max_min(
        [FlowDemand(f.key, 0.060, f.links, path_bandwidth=f.path_bandwidth)
         for f in TWO_FLOWS], CAPACITIES)
    return {"weighted": weighted, "flat": flat}


def solver_comparison() -> Dict[str, Dict[str, float]]:
    return {"exact": rtt_aware_max_min(FIVE_FLOWS, FIVE_FLOW_CAPACITIES),
            "two_step": paper_two_step_shares(FIVE_FLOWS,
                                              FIVE_FLOW_CAPACITIES)}


def _tcp_state(engine, until, _state) -> Dict[str, float]:
    tcp = engine.fluid.flows["c1"]
    return {"loss_events": tcp.loss_events, "final_cwnd": tcp.cwnd}


def point_scenario(*, congestion_sensitivity: float, duration: float,
                   seed: int):
    """Shrink a link mid-flow, with (1.0) or without (0.0) loss injection."""
    return (throttling()
            .event(DynamicEvent(
                time=duration * 0.4, action=EventAction.SET_LINK,
                origin="b1", destination="b2",
                changes={"bandwidth": 10 * MBPS}))
            .workload(flow("c1", "s1", key="c1"),
                      custom("tcp", collect=_tcp_state, needs=(BULK_PLANE,)))
            .deploy(machines=2, seed=seed, duration=duration,
                    congestion_sensitivity=congestion_sensitivity))


# The loss-injection pair: the same run at sensitivity 1 and 0.
campaign = grid_campaign("ablation-sharing", point_scenario, seed=131,
                         congestion_sensitivity=[1.0, 0.0],
                         duration=_DURATION)


@experiment("ablation-sharing", campaign, duration=12.0)
def report(sweep) -> ExperimentResult:
    rtt = rtt_weight_comparison()
    solver = solver_comparison()
    loss = {}
    for name, sensitivity in (("with-loss", 1.0), ("without-loss", 0.0)):
        run = sweep.run_for(congestion_sensitivity=sensitivity)
        duration = run.params["duration"]
        tcp = run.metric("tcp")
        loss[name] = {
            "goodput": run.metric("c1").mean_throughput(duration * 0.6,
                                                        duration),
            "loss_events": tcp.stat("loss_events"),
            "final_cwnd": tcp.stat("final_cwnd")}

    rows = [
        ("rtt-aware two-flow split (paper 23.08/26.92)",
         f"{rtt['weighted']['c1'] / MBPS:.2f}/"
         f"{rtt['weighted']['c2'] / MBPS:.2f}"),
        ("flat max-min two-flow split",
         f"{rtt['flat']['c1'] / MBPS:.2f}/{rtt['flat']['c2'] / MBPS:.2f}"),
        ("exact five-flow c4/c5 (paper 23.74/29.62)",
         f"{solver['exact']['c4'] / MBPS:.2f}/"
         f"{solver['exact']['c5'] / MBPS:.2f}"),
        ("two-step five-flow c4/c5",
         f"{solver['two_step']['c4'] / MBPS:.2f}/"
         f"{solver['two_step']['c5'] / MBPS:.2f}"),
        ("goodput after shrink, loss injection on",
         f"{loss['with-loss']['goodput'] / MBPS:.2f} Mb/s"),
        ("goodput after shrink, loss injection off",
         f"{loss['without-loss']['goodput'] / MBPS:.2f} Mb/s"),
        ("final cwnd on/off (Mbit)",
         f"{loss['with-loss']['final_cwnd'] / 1e6:.2f}/"
         f"{loss['without-loss']['final_cwnd'] / 1e6:.2f}"),
    ]
    result = ExperimentResult(
        exp_id="ablation-sharing",
        title="Ablation: sharing-model design choices",
        paper_claim=(
            "The RTT-aware weights produce Figure 8's 23.08/26.92 split "
            "(plain max-min would give 25/25); the maximization step must "
            "cascade surplus across bottlenecks; and congestion loss "
            "injection is what lets TCP converge when capacity shrinks "
            "(§3)."),
        headers=["metric", "value"],
        rows=rows)
    result.check("RTT weights reproduce the paper's two-flow split",
                 abs(rtt["weighted"]["c1"] / MBPS - 23.08) < 0.3
                 and abs(rtt["weighted"]["c2"] / MBPS - 26.92) < 0.3)
    result.check("flat max-min collapses the split to 25/25",
                 abs(rtt["flat"]["c1"] / MBPS - 25.0) < 0.3)
    result.check("two-step heuristic under-allocates cascading surplus",
                 solver["two_step"]["c4"] < solver["exact"]["c4"] * 0.97
                 and solver["two_step"]["c5"] < solver["exact"]["c5"] * 0.97)
    for link, capacity in FIVE_FLOW_CAPACITIES.items():
        used = sum(solver["two_step"][flow.key] for flow in FIVE_FLOWS
                   if link in flow.links)
        result.check(f"two-step never oversubscribes link {link}",
                     used <= capacity * 1.001)
    result.check("with injection TCP converges to the shrunk link",
                 abs(loss["with-loss"]["goodput"] - 10 * MBPS)
                 <= 0.15 * 10 * MBPS)
    result.check("injection produced TCP loss events",
                 loss["with-loss"]["loss_events"] > 0)
    result.check("no injection, no loss events",
                 loss["without-loss"]["loss_events"] == 0)
    result.check("without injection the window stays inflated",
                 loss["without-loss"]["final_cwnd"]
                 > 2 * loss["with-loss"]["final_cwnd"])
    return result


run = get_runner("ablation-sharing")
