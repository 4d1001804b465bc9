"""Figure 11 — the what-if scenario: halve the inter-region latency.

Paper: keep the Figure 10 deployment but move the 4 Sydney replicas to
Seoul (ap-northeast), halving the inter-region RTT.  Cassandra responds as
expected: update latencies drop by about half (reads, already local,
barely move) and the saturation point shifts to higher throughput.  In
Kollaps this is a one-line change to the topology description.

Here it is one grid axis: the campaign runs Figure 10's
:func:`~repro.experiments.fig10.point_scenario` with ``remote_region``
swept over Sydney and Seoul.
"""

from __future__ import annotations

from repro.experiments import fig10
from repro.experiments.base import ExperimentResult, experiment, get_runner, \
    grid_campaign

THREAD_SWEEP = [4, 16, 32]
_DURATION = 25.0

# remote region -> YCSB RNG stream prefix (the two deployments draw
# independent request streams).
_STREAM_TAGS = {"sydney": "base:", "seoul": "whatif:"}


def point_scenario(*, remote_region: str, threads: int,
                   duration: float, seed: int):
    """Figure 10's deployment with the remote replicas in ``remote_region``."""
    return fig10.point_scenario(
        threads=threads, duration=duration, seed=seed,
        remote_region=remote_region,
        stream_tags={"kollaps": _STREAM_TAGS[remote_region]})


# Remote region × offered load, on Kollaps.
campaign = grid_campaign("fig11", point_scenario, seed=121,
                         remote_region=list(_STREAM_TAGS),
                         threads=THREAD_SWEEP, duration=_DURATION)


@experiment("fig11", campaign, duration=10.0)
def report(sweep) -> ExperimentResult:
    # region -> threads -> the YCSB summary (throughput, mean latencies)
    results = {region: {threads: sweep.run_for(remote_region=region,
                                               threads=threads)
                        .metric("ycsb").summary
                        for threads in THREAD_SWEEP}
               for region in _STREAM_TAGS}
    result = ExperimentResult(
        exp_id="fig11",
        title="What-if: original (Sydney) vs halved latency (Seoul)",
        paper_claim=(
            "Moving the remote replicas from Sydney (~290 ms) to Seoul "
            "(~145 ms) — a one-line topology change in Kollaps — halves "
            "the update latency, barely moves the (local) reads, and "
            "pushes the saturation point to higher throughput."),
        headers=["threads", "orig ops/s", "orig read ms", "orig update ms",
                 "what-if ops/s", "what-if read ms", "what-if update ms"],
        rows=[(threads,
               f"{results['sydney'][threads]['throughput']:.0f}",
               f"{results['sydney'][threads]['read_latency'] * 1e3:.1f}",
               f"{results['sydney'][threads]['update_latency'] * 1e3:.1f}",
               f"{results['seoul'][threads]['throughput']:.0f}",
               f"{results['seoul'][threads]['read_latency'] * 1e3:.1f}",
               f"{results['seoul'][threads]['update_latency'] * 1e3:.1f}")
              for threads in THREAD_SWEEP])
    for threads in THREAD_SWEEP:
        original = results["sydney"][threads]
        whatif = results["seoul"][threads]
        result.check(
            f"update latency roughly halves at {threads} threads",
            abs(whatif["update_latency"] - original["update_latency"] / 2)
            <= 0.20 * original["update_latency"] / 2)
        result.check(f"throughput rises accordingly at {threads} threads",
                     whatif["throughput"] > original["throughput"] * 1.3)
        # Reads are served by the local (Frankfurt) replica via the snitch
        # in both deployments, so they barely move.
        result.check(f"reads barely move at {threads} threads",
                     abs(whatif["read_latency"] - original["read_latency"])
                     <= 0.10 * original["read_latency"])
    return result


run = get_runner("fig11")
