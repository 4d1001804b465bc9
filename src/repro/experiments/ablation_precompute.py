"""Ablation — pre-computed vs online dynamic-topology handling (§3, §6).

The paper pre-computes the whole graph sequence offline because online
recomputation of all-pairs shortest paths "could take several seconds for
large graphs, precluding accurate emulation of sub-second dynamics".  This
ablation quantifies that: the cost of applying one pre-computed state swap
versus collapsing a large topology from scratch at event time.
"""

from __future__ import annotations

from typing import Dict

from repro.core import collapse
from repro.telemetry import Stopwatch
from repro.core.dynamic import DynamicTopologyPlan
from repro.experiments.base import ExperimentResult, experiment, scenario_engine
from repro.scenario.topologies import scale_free
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


def compute_results(size: int = SIZE) -> Dict[str, float]:
    builder = scale_free(size, seed=17)
    topology = builder.compile().topology
    schedule = build_schedule(topology)

    # Offline pre-computation (what Kollaps does before the run).
    with Stopwatch() as precompute:
        plan = DynamicTopologyPlan(topology, schedule)

    # Per-event swap cost at runtime with the plan in hand.
    engine = scenario_engine(builder, schedule, machines=2, seed=17,
                             enforce_bandwidth_sharing=False)
    with Stopwatch() as runtime:
        engine.run(until=schedule.horizon() + 0.1)
    runtime_cost = runtime.elapsed / len(schedule)

    # Online alternative: collapse from scratch at event time.  The memo
    # must be bypassed — the plan above already collapsed this topology,
    # and a cache hit would measure a dict lookup, not the ablated cost.
    with Stopwatch() as online:
        collapse(topology, memo=False)

    return {"precompute_total": precompute.elapsed,
            "swap_per_event": runtime_cost,
            "online_per_event": online.elapsed,
            "states": len(plan),
            "expected_states": len(schedule) + 1}


@experiment("ablation-precompute")
def run(quick: bool = False) -> ExperimentResult:
    results = compute_results(size=300 if quick else SIZE)
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
              ("pre-computed states", results["states"])])
    result.check(
        "pre-computed swap at least 2x cheaper than online collapse",
        results["swap_per_event"] < results["online_per_event"] / 2)
    result.check("one state per distinct event time plus the base",
                 results["states"] == results["expected_states"])
    return result
