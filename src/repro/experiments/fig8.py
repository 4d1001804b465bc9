"""Figure 8 — decentralized bandwidth throttling with staggered clients.

Paper (§5.4): six clients start 60 s apart on the three-bridge topology,
then stop in reverse order.  The RTT-aware min-max model predicts every
stage's shares analytically (23.08/26.92, 18.45/21.55/10, ...,
15.04/17.55/10/21.06/26.33/10 Mb/s); the decentralized emulation tracks
those values within a few percent, re-converging at every arrival and
departure.  Time is scaled 6x (10 s per stage).

One campaign point: six ``flow(start=, stop=)`` workloads on the
three-bridge topology; :func:`report` takes each stage's shares as window
means over the flows' stored throughput series.
"""

from __future__ import annotations

from repro.experiments.base import ExperimentResult, experiment, get_runner, \
    grid_campaign
from repro.scenario import flow
from repro.scenario.topologies import throttling

_STAGE = 10.0
MBPS = 1e6

# Expected share per client and stage, from the model (== paper's figures).
EXPECTED = {
    1: [50.0],
    2: [23.08, 26.92],
    3: [18.46, 21.54, 10.0],
    4: [18.46, 21.54, 10.0, 50.0],
    5: [16.93, 19.75, 10.0, 23.70, 29.62],
    6: [15.05, 17.55, 10.0, 21.07, 26.33, 10.0],
}


def point_scenario(*, stage: float, seed: int):
    """Arrivals every stage; departures in reverse order afterwards."""
    builder = throttling()
    for index in range(1, 7):
        builder.workload(flow(f"c{index}", f"s{index}",
                              start=(index - 1) * stage,
                              stop=(12 - index) * stage, key=f"c{index}"))
    return builder.deploy(machines=4, seed=seed, duration=12 * stage)


# A single point, twelve stages long.
campaign = grid_campaign("fig8", point_scenario, seed=91, stage=_STAGE)


# Quick stages must still outlast the flows' TCP ramp (~2-3 s).
@experiment("fig8", campaign, stage=8.0)
def report(sweep) -> ExperimentResult:
    run = sweep.run_for()
    stage = run.params["stage"]
    # Measured per-client Mb/s for each arrival stage (its settled tail).
    measured = {
        number: [run.metric(f"c{index}").mean_throughput(
                     (number - 1) * stage + stage * 0.4, number * stage)
                 / MBPS for index in range(1, number + 1)]
        for number in range(1, 7)}
    # Tear-down: after all departures the link is quiet again.
    teardown = run.metric("c1").mean_throughput(11.5 * stage,
                                                12 * stage) / MBPS
    rows = []
    for number in range(1, 7):
        for index, (got, want) in enumerate(zip(measured[number],
                                                EXPECTED[number]), start=1):
            rows.append((f"stage {number}", f"c{index}", f"{got:.2f}",
                         f"{want:.2f}"))
    result = ExperimentResult(
        exp_id="fig8",
        title="Decentralized throttling: per-client share by stage (Mb/s)",
        paper_claim=(
            "Six clients arrive 60 s apart and depart in reverse order; "
            "the RTT-aware min-max model predicts each stage's shares "
            "(50 -> 23.08/26.92 -> 18.45/21.55/10 -> ... -> "
            "15.04/17.55/10/21.06/26.33/10 Mb/s) and the decentralized "
            "emulation re-converges to them at every transition."),
        headers=["stage", "client", "measured", "model/paper"],
        rows=rows)
    for number in range(1, 7):
        for index, (got, want) in enumerate(zip(measured[number],
                                                EXPECTED[number]), start=1):
            result.check(
                f"stage {number} c{index}: measured {got:.2f} tracks model "
                f"{want:.2f} Mb/s",
                abs(got - want) <= 0.15 * want)
    result.check("all flows quiet after teardown", teardown == 0.0)
    return result


run = get_runner("fig8")
