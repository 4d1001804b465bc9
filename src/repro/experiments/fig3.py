"""Figure 3 — metadata network traffic vs containers, flows and hosts.

Paper: dumbbell topologies with (C containers, F flows) on 1-4 physical
hosts, iPerf3 at 50 Mb/s through the shared link.  Metadata traffic is
zero on one host (shared memory only), grows with the number of *hosts*,
and is essentially flat in the number of *containers* — the
decentralization claim.  Absolute volume stays in the hundreds of KB/s at
the largest configuration (paper: ~493 KB/s at 160 containers, 4 hosts).

The (containers, flows) × hosts grid is declared once — the
configurations the paper never measured are ``exclude``\\ d — and
:func:`report` reads each run's metadata rate off its provenance: the
Emulation Managers' wire bytes over the run's length.
"""

from __future__ import annotations

from repro.experiments.base import ExperimentResult, experiment, get_runner
from repro.scenario import flow
from repro.scenario.topologies import dumbbell

# (containers, flows) configurations of Figure 3 (scaled to half size so
# the full sweep stays fast; the relationships are size-independent).
CONFIGS = [(20, 10), (40, 10), (40, 20), (80, 10), (80, 20), (80, 40)]
HOSTS = [1, 2, 3, 4]
_DURATION = 5.0
_SEED = 41


def point_scenario(*, containers: int, flows: int, hosts: int,
                   duration: float = _DURATION, seed: int = _SEED):
    """One Figure-3 scenario builder — the campaign's point factory."""
    builder = dumbbell(containers // 2, shared_bandwidth=50e6)
    for index in range(flows):
        builder.workload(flow(f"client{index}", f"server{index}",
                              key=f"f{index}"))
    return builder.deploy(machines=hosts, seed=seed, duration=duration)


def campaign(duration: float = _DURATION):
    """The Figure-3 sweep: measured (containers, flows) cells × hosts."""
    from repro.campaign import Campaign
    return (Campaign("fig3")
            .scenario(point_scenario)
            .grid(containers=sorted({c for c, _f in CONFIGS}),
                  flows=sorted({f for _c, f in CONFIGS}),
                  hosts=HOSTS,
                  duration=[duration])
            .seeds([_SEED])
            .backends("kollaps")
            .exclude(lambda point: (point.params_dict()["containers"],
                                    point.params_dict()["flows"])
                     not in CONFIGS))


@experiment("fig3", campaign, duration=2.0)
def report(sweep) -> ExperimentResult:
    # (containers, flows, hosts) -> metadata bytes/s over the whole run
    runs = {(containers, flows, hosts):
            sweep.run_for(containers=containers, flows=flows, hosts=hosts)
            for containers, flows in CONFIGS for hosts in HOSTS}
    results = {cell: run.metadata_bytes / run.until
               for cell, run in runs.items()}
    result = ExperimentResult(
        exp_id="fig3",
        title="Metadata traffic (KB/s) by (containers, flows) x hosts",
        paper_claim=(
            "Metadata traffic is zero on a single host (shared memory "
            "only), grows with the number of physical hosts, and is flat "
            "in the number of containers; the largest configuration "
            "(160 containers, 4 hosts) needs only ~493 KB/s."),
        headers=["config"] + [f"{h} hosts" for h in HOSTS],
        rows=[(f"c={containers} f={flows}",
               *(f"{results[(containers, flows, hosts)] / 1e3:.1f}"
                 for hosts in HOSTS))
              for containers, flows in CONFIGS])
    for containers, flows in CONFIGS:
        result.check(
            f"zero network metadata on one host (c={containers} f={flows})",
            results[(containers, flows, 1)] == 0.0)
        result.check(
            f"traffic grows with host count (c={containers} f={flows})",
            results[(containers, flows, 4)]
            > results[(containers, flows, 2)] > 0.0)
    base = results[(20, 10, 4)]
    wide = results[(80, 10, 4)]
    result.check("flat in containers: 4x containers, same traffic (+/-30 %)",
                 abs(wide - base) <= 0.30 * base)
    result.check("modest absolute volume (< 500 KB/s everywhere)",
                 max(results.values()) < 500e3)
    return result


run = get_runner("fig3")
