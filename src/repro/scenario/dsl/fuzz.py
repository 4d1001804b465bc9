"""Seeded property-based scenario generation.

``generate_scenario(seed, index, budget)`` emits one *valid* random
scenario: a connected bridge tree with services attached, extra
redundant links, demand-limited flows, optional packet-plane probes and
dynamic events — sized by a :class:`FuzzBudget`.  Determinism is part of
the contract: the generator draws from ``random.Random`` keyed on the
``(seed, index)`` pair alone, so the same inputs produce byte-identical
``.scn`` dumps on any machine and any Python process (string seeding is
hash-randomization-independent).

Two consumers:

* ``repro scenario fuzz --seed S --count N`` — write/check a corpus, and
  with ``--differential`` run it on several backends;
* the round-trip property test, which holds over thousands of these.

Generation invariants (what makes every output valid *and* portable):

* the bridge tree is connected by construction and every service hangs
  off a bridge, so every service pair has an end-to-end path;
* every link carries a finite bandwidth, so trickle always has a
  provisioned rate;
* flows are constant-bit-rate (UDP) and demand-limited to a fraction of
  the *minimum* link bandwidth divided by the flow count — even if every
  flow crossed the narrowest link at once there would be no contention,
  and CBR senders don't react to loss, which keeps analytic backends
  (trickle) and fluid backends (kollaps/baremetal) inside the
  differential harness's tolerance;
* down/up flaps only ever remove the redundant extra links, never the
  tree, so the topology stays connected through every event.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Tuple

from repro.scenario.builder import Scenario, link_down, link_up, set_link

__all__ = ["FuzzBudget", "generate_scenario"]

# Plausible "nice" values the generator draws from (SI base units).
_BANDWIDTHS = [1e6, 2e6, 5e6, 10e6, 20e6, 50e6, 100e6, 200e6, 500e6, 1e9]
_LATENCIES = [0.001, 0.002, 0.005, 0.010, 0.020, 0.050]
_JITTERS = [0.0, 0.0, 0.0005, 0.001]            # mostly none
_LOSSES = [0.0, 0.0, 0.0, 0.001, 0.01]          # mostly none
_IMAGES = ["scratch", "iperf", "nginx", "alpine"]


@dataclass(frozen=True)
class FuzzBudget:
    """Size knobs for one generated scenario; all ranges are inclusive."""

    bridges: Tuple[int, int] = (1, 3)
    services: Tuple[int, int] = (2, 5)
    extra_links: Tuple[int, int] = (0, 2)
    flows: Tuple[int, int] = (1, 3)
    probes: Tuple[int, int] = (0, 1)      # packet-plane workloads
    events: Tuple[int, int] = (0, 3)      # dynamic set_link / flap slots
    flap_probability: float = 0.3         # chance an event slot flaps
    demand_fraction: float = 0.6          # of min link bandwidth, total
    duration: Tuple[float, float] = (10.0, 40.0)

    @classmethod
    def scaled(cls, scale: str) -> "FuzzBudget":
        """A preset budget: ``small`` (default), ``medium`` or ``large``."""
        if scale == "small":
            return cls()
        if scale == "medium":
            return cls(bridges=(2, 6), services=(4, 10), extra_links=(0, 4),
                       flows=(1, 4), probes=(0, 2), events=(0, 6))
        if scale == "large":
            return cls(bridges=(4, 10), services=(8, 24), extra_links=(0, 8),
                       flows=(2, 6), probes=(0, 3), events=(0, 10))
        raise ValueError(f"unknown fuzz scale {scale!r} "
                         f"(expected small, medium or large)")


def _draw(rng: random.Random, bounds: Tuple[int, int]) -> int:
    return rng.randint(bounds[0], bounds[1])


def generate_scenario(seed: int, index: int = 0,
                      budget: FuzzBudget = FuzzBudget()) -> Scenario:
    """One deterministic random scenario builder for ``(seed, index)``."""
    rng = random.Random(f"scn-fuzz:{seed}:{index}")
    builder = Scenario.build(f"fuzz-{seed}-{index}")

    n_bridges = _draw(rng, budget.bridges)
    n_services = max(2, _draw(rng, budget.services))
    bridges = [f"s{i}" for i in range(1, n_bridges + 1)]
    services = [f"c{i}" for i in range(1, n_services + 1)]
    for name in services:
        builder.service(name, image=rng.choice(_IMAGES))
    builder.bridges(*bridges)

    def random_link(orig: str, dest: str) -> Tuple[str, str]:
        builder.link(orig, dest,
                     latency=rng.choice(_LATENCIES),
                     bandwidth=rng.choice(_BANDWIDTHS),
                     jitter=rng.choice(_JITTERS),
                     loss=rng.choice(_LOSSES))
        return (orig, dest)

    # A connected bridge tree, then every service attached to a bridge.
    tree_links: List[Tuple[str, str]] = []
    for position, bridge in enumerate(bridges[1:], start=1):
        tree_links.append(random_link(bridge,
                                      rng.choice(bridges[:position])))
    for name in services:
        tree_links.append(random_link(name, rng.choice(bridges)))

    # Redundant extra links between bridge pairs (flap candidates).
    extra_links: List[Tuple[str, str]] = []
    present = {frozenset(pair) for pair in tree_links}
    for _ in range(_draw(rng, budget.extra_links)):
        if len(bridges) < 2:
            break
        orig, dest = rng.sample(bridges, 2)
        if frozenset((orig, dest)) in present:
            continue
        present.add(frozenset((orig, dest)))
        extra_links.append(random_link(orig, dest))

    min_bandwidth = min(spec.up for spec in builder._links)
    duration = round(rng.uniform(*budget.duration), 1)

    # Demand-limited flows: even all sharing the narrowest link, the
    # total demand stays below budget.demand_fraction of its capacity.
    from repro.scenario.workloads import flow, ping
    n_flows = max(1, _draw(rng, budget.flows))
    demand = round(min_bandwidth * budget.demand_fraction / n_flows)
    for number in range(1, n_flows + 1):
        source, destination = rng.sample(services, 2)
        builder.workload(flow(source, destination, rate=float(demand),
                              protocol="udp", key=f"flow{number}"))
    # Probes are pings: their headline metric is path latency, which
    # every packet-plane backend derives from the same topology.  An
    # http_load probe's headline is *throughput under contention* with
    # the bulk flows, where kollaps and baremetal legitimately model
    # sharing differently — that belongs to directed differential
    # tests, not a corpus whose contract is cross-backend agreement.
    # The sample count is large because jittered hops draw per-packet
    # noise from each backend's own RNG: the means must converge.
    for number in range(1, _draw(rng, budget.probes) + 1):
        source, destination = rng.sample(services, 2)
        builder.workload(ping(source, destination,
                              count=rng.randint(80, 200),
                              interval=0.02, key=f"probe{number}"))

    _random_events(rng, builder, budget, duration,
                   tree_links + extra_links, set(extra_links))

    machines = rng.randint(1, 3)
    builder.deploy(machines=machines, seed=rng.randint(0, 9999),
                   duration=duration)
    return builder


def _random_events(rng: random.Random, builder: Scenario,
                   budget: FuzzBudget, duration: float,
                   links: List[Tuple[str, str]], flappable: set) -> None:
    """Dynamic churn: set_link changes anywhere, down/up flaps only on
    the redundant extra links so connectivity survives every event.
    Each event slot consumes a distinct link (no conflicting timelines
    on one link)."""
    slots = _draw(rng, budget.events)
    if not slots or duration <= 4.0:
        return
    candidates = list(links)
    rng.shuffle(candidates)
    specs = {(spec.source, spec.destination): spec
             for spec in builder._links}
    for _ in range(min(slots, len(candidates))):
        orig, dest = candidates.pop()
        spec = specs[(orig, dest)]
        start = round(rng.uniform(1.0, duration - 2.0), 1)
        if (orig, dest) in flappable and \
                rng.random() < budget.flap_probability:
            heal = round(rng.uniform(start + 0.5, duration - 1.0), 1)
            builder.at(start, link_down(orig, dest))
            builder.at(heal, link_up(orig, dest, latency=spec.latency,
                                     up=spec.up, jitter=spec.jitter,
                                     loss=spec.loss))
        else:
            field = rng.choice(["latency", "bandwidth"])
            if field == "latency":
                builder.at(start, set_link(
                    orig, dest, latency=rng.choice(_LATENCIES)))
            else:
                builder.at(start, set_link(
                    orig, dest, bandwidth=rng.choice(_BANDWIDTHS)))
