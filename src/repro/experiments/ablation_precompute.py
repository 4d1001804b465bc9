"""Ablation — pre-computed vs online dynamic-topology handling (§3, §6).

The paper pre-computes the whole graph sequence offline because online
recomputation of all-pairs shortest paths "could take several seconds for
large graphs, precluding accurate emulation of sub-second dynamics".  This
ablation quantifies that: the cost of applying one pre-computed state swap
versus collapsing a large topology from scratch at event time.

One campaign point: the engine pre-computes its plan while it is built
(timed by the plan itself: signatures and property maps per state — the
shortest-path trees fill in as the run first uses them, inside the swap
figure), a ``custom`` workload times the run that applies the swaps and
then one online all-pairs collapse, and :func:`report` compares the three
wall-clock figures.
"""

from __future__ import annotations

from repro.core import collapse
from repro.experiments.base import ExperimentResult, experiment, get_runner, \
    grid_campaign
from repro.scenario import custom
from repro.scenario.topologies import scale_free
from repro.telemetry import Stopwatch
from repro.topology import DynamicEvent, EventAction, EventSchedule

SIZE = 600


def build_schedule(topology) -> EventSchedule:
    """Ten property changes on backbone links, 100 ms apart."""
    links = [link for link in topology.links()
             if link.source.startswith("sw")][:10]
    return EventSchedule([
        DynamicEvent(time=0.1 * (index + 1), action=EventAction.SET_LINK,
                     origin=link.source, destination=link.destination,
                     changes={"latency": 0.005}, bidirectional=False)
        for index, link in enumerate(links)])


def point_scenario(*, size: int, seed: int):
    """A scale-free topology whose backbone changes ten times."""
    builder = scale_free(size, seed=seed)
    schedule = build_schedule(builder.compile().topology)
    for event in schedule:
        builder.event(event)

    def collect(engine, until, runtime: Stopwatch):
        # Per-event swap cost at runtime with the plan in hand.
        swap_per_event = runtime.stop() / len(schedule)
        # Online alternative: all-pairs shortest paths from scratch at
        # event time.  The memo must be bypassed — the plan already
        # collapsed this topology, and a cache hit would measure a dict
        # lookup — and the table asked for whole: collapse() alone builds
        # no tree, which would measure a graph copy, not the ablated cost.
        with Stopwatch() as online:
            collapse(engine.plan.initial().topology, memo=False).paths()
        return {"precompute_total": engine.plan.precompute_seconds,
                "swap_per_event": swap_per_event,
                "online_per_event": online.elapsed,
                "states": len(engine.plan),
                "expected_states": len(schedule) + 1}

    return (builder
            .workload(custom("timing", lambda engine: Stopwatch(),
                             collect=collect, needs=()))
            .deploy(machines=2, seed=seed, enforce_bandwidth_sharing=False,
                    duration=schedule.horizon() + 0.1))


# A single timed point.
campaign = grid_campaign("ablation-precompute", point_scenario, seed=17,
                         size=SIZE)


@experiment("ablation-precompute", campaign, size=300)
def report(sweep) -> ExperimentResult:
    results = sweep.run_for().metric("timing").summary
    result = ExperimentResult(
        exp_id="ablation-precompute",
        title="Ablation: pre-computed vs online dynamic-event handling",
        paper_claim=(
            "Kollaps pre-computes the whole graph sequence offline because "
            "online recomputation of all-pairs shortest paths could take "
            "seconds on large graphs, precluding sub-second dynamics (§3, "
            "§6)."),
        headers=["metric", "value"],
        rows=[("offline pre-computation (all states)",
               f"{results['precompute_total'] * 1e3:.1f} ms"),
              ("runtime cost per event, pre-computed",
               f"{results['swap_per_event'] * 1e3:.1f} ms"),
              ("online collapse per event (ablation)",
               f"{results['online_per_event'] * 1e3:.1f} ms"),
              ("pre-computed states", f"{results['states']:.0f}")])
    result.check(
        "pre-computed swap at least 2x cheaper than online collapse",
        results["swap_per_event"] < results["online_per_event"] / 2)
    result.check("one state per distinct event time plus the base",
                 results["states"] == results["expected_states"])
    return result


run = get_runner("ablation-precompute")
