"""Builder-producing topology generators for the evaluation workloads.

Each generator returns an *uncompiled*
:class:`~repro.scenario.builder.Scenario`, so callers can chain events,
workloads and deployment settings before compiling;
``generator(...).compile().topology`` is the bare
:class:`~repro.topology.model.Topology`.

Construction order (and therefore every seeded RNG draw and link id) is
fixed, keeping all seeded topologies bit-for-bit reproducible.
"""

from __future__ import annotations

import random
from typing import Dict, Optional, Sequence, Tuple

from repro.scenario.builder import Scenario

__all__ = [
    "point_to_point",
    "dumbbell",
    "star",
    "tree",
    "scale_free",
    "aws_star",
    "aws_mesh",
    "throttling",
    "fat_tree",
    "AWS_REGION_LATENCY_FROM_US_EAST_1",
    "INTER_REGION_RTT_MS",
    "CLIENT_ACCESS_PROFILE",
    "region_rtt",
]


# --------------------------------------------------------------------------
# Elementary shapes (micro-benchmarks, §5.1–5.3).
# --------------------------------------------------------------------------
def point_to_point(bandwidth: float, latency: float = 0.001, *,
                   jitter: float = 0.0, loss: float = 0.0,
                   client: str = "client", server: str = "server") -> Scenario:
    """Two services joined by a single switch (the Table 2 / §5.1 shape).

    ``latency``, ``jitter`` and ``loss`` are end-to-end: each half link gets
    a share such that path composition (sum, root-sum-square, 1-product)
    recovers the requested values.
    """
    half_jitter = jitter / 2.0 ** 0.5
    half_loss = 1.0 - (1.0 - loss) ** 0.5
    return (Scenario.build("point-to-point")
            .service(client, image="iperf")
            .service(server, image="iperf")
            .bridge("s0")
            .link(client, "s0", latency=latency / 2.0, up=bandwidth,
                  jitter=half_jitter, loss=half_loss)
            .link("s0", server, latency=latency / 2.0, up=bandwidth,
                  jitter=half_jitter, loss=half_loss))


def dumbbell(pairs: int, *, access_bandwidth: float = 1e9,
             shared_bandwidth: float = 50e6, access_latency: float = 0.001,
             shared_latency: float = 0.010) -> Scenario:
    """``pairs`` clients one side, ``pairs`` servers the other; one shared
    link between the two bridges (the §5.2 metadata-scalability workload)."""
    if pairs < 1:
        raise ValueError("a dumbbell needs at least one pair")
    builder = (Scenario.build(f"dumbbell-{pairs}")
               .bridge("left").bridge("right")
               .link("left", "right", latency=shared_latency,
                     up=shared_bandwidth))
    for index in range(pairs):
        client = f"client{index}"
        server = f"server{index}"
        builder.service(client, image="iperf").service(server, image="iperf")
        builder.link(client, "left", latency=access_latency,
                     up=access_bandwidth)
        builder.link("right", server, latency=access_latency,
                     up=access_bandwidth)
    return builder


def star(leaves: Sequence[str], *, bandwidth: float = 1e9,
         latency: float = 0.001, hub: str = "hub") -> Scenario:
    """All ``leaves`` hang off one central bridge."""
    builder = Scenario.build("star").bridge(hub)
    for leaf in leaves:
        builder.service(leaf)
        builder.link(leaf, hub, latency=latency, up=bandwidth)
    return builder


def tree(depth: int, fanout: int, *, bandwidth: float = 1e9,
         latency: float = 0.001) -> Scenario:
    """A complete switch tree with services at the leaves."""
    if depth < 1:
        raise ValueError("tree depth must be >= 1")
    builder = Scenario.build(f"tree-d{depth}-f{fanout}").bridge("b0.0")
    previous = ["b0.0"]
    for level in range(1, depth):
        current = []
        for parent_index, parent in enumerate(previous):
            for child in range(fanout):
                name = f"b{level}.{parent_index * fanout + child}"
                builder.bridge(name)
                builder.link(parent, name, latency=latency, up=bandwidth)
                current.append(name)
        previous = current
    leaf_index = 0
    for parent in previous:
        for _ in range(fanout):
            name = f"leaf{leaf_index}"
            builder.service(name)
            builder.link(parent, name, latency=latency, up=bandwidth)
            leaf_index += 1
    return builder


# --------------------------------------------------------------------------
# Scale-free Internet-like topologies (§5.5, Table 4).
# --------------------------------------------------------------------------
def scale_free(total_nodes: int, *, seed: int = 0,
               switch_fraction: float = 1.0 / 3.0,
               attachment_edges: int = 2,
               backbone_bandwidth: float = 1e9,
               access_bandwidth: float = 100e6,
               backbone_latency_range=(0.002, 0.010),
               access_latency_range=(0.001, 0.002)) -> Scenario:
    """Barabási–Albert preferential attachment: a switch backbone plus
    end-nodes attaching preferentially by degree (1000 elements =
    666 end-nodes + 334 switches, matching Table 4)."""
    if total_nodes < 4:
        raise ValueError("scale-free topology needs at least 4 elements")
    rng = random.Random(seed)
    switch_count = max(2, round(total_nodes * switch_fraction))
    node_count = total_nodes - switch_count

    builder = Scenario.build(f"scale-free-{total_nodes}")
    switches = [f"sw{i}" for i in range(switch_count)]
    for name in switches:
        builder.bridge(name)

    def backbone_link(source: str, destination: str) -> None:
        builder.link(source, destination,
                     latency=rng.uniform(*backbone_latency_range),
                     up=backbone_bandwidth)

    # `attachment_targets` holds one entry per incident edge, so sampling
    # uniformly from it is degree-proportional sampling.
    attachment_targets = [switches[0], switches[1]]
    backbone_link(switches[0], switches[1])
    for index in range(2, switch_count):
        new_switch = switches[index]
        edges = min(attachment_edges, index)
        chosen = set()
        while len(chosen) < edges:
            chosen.add(rng.choice(attachment_targets))
        for target in sorted(chosen):
            backbone_link(new_switch, target)
            attachment_targets.append(target)
            attachment_targets.append(new_switch)

    # End-nodes attach preferentially, like stub networks joining the core.
    for index in range(node_count):
        name = f"n{index}"
        builder.service(name)
        target = rng.choice(attachment_targets)
        builder.link(name, target,
                     latency=rng.uniform(*access_latency_range),
                     up=access_bandwidth)
    return builder


# --------------------------------------------------------------------------
# Amazon EC2 geo-distributed topologies (Table 3, §5.6).
# --------------------------------------------------------------------------
# Table 3: destination -> (one-way latency ms, measured EC2 jitter ms).
AWS_REGION_LATENCY_FROM_US_EAST_1: Dict[str, Tuple[float, float]] = {
    "us-east-1": (6.0, 0.5607),
    "us-east-2": (17.0, 1.2411),
    "ca-central-1": (24.0, 1.2451),
    "us-west-1": (70.0, 1.3627),
    "eu-west-1": (78.0, 1.2000),
    "eu-west-2": (85.0, 1.6609),
    "eu-north-1": (119.0, 1.2850),
    "ap-northeast-1": (170.0, 1.4217),
    "ap-south-1": (194.0, 2.0233),
    "ap-northeast-2": (200.0, 1.8364),
    "ap-southeast-2": (208.0, 1.4277),
    "ap-southeast-1": (249.0, 1.3728),
}

# Round-trip latency (ms) between the five regions of [78]; symmetric.
INTER_REGION_RTT_MS: Dict[Tuple[str, str], float] = {
    ("virginia", "oregon"): 81.0,
    ("virginia", "ireland"): 81.0,
    ("virginia", "saopaulo"): 146.0,
    ("virginia", "sydney"): 229.0,
    ("oregon", "ireland"): 161.0,
    ("oregon", "saopaulo"): 182.0,
    ("oregon", "sydney"): 161.0,
    ("ireland", "saopaulo"): 191.0,
    ("ireland", "sydney"): 309.0,
    ("saopaulo", "sydney"): 326.0,
}

# Additional regions used by the Cassandra deployment (§5.6) and the
# what-if scenario (Figure 11): Frankfurt <-> Sydney and Frankfurt <-> Seoul.
INTER_REGION_RTT_MS.update({
    ("frankfurt", "sydney"): 290.0,
    ("frankfurt", "seoul"): 145.0,  # the "halved latency" move of Figure 11
    ("frankfurt", "virginia"): 89.0,
    ("frankfurt", "ireland"): 25.0,
})


def region_rtt(a: str, b: str) -> float:
    """Symmetric lookup into :data:`INTER_REGION_RTT_MS` (seconds)."""
    if a == b:
        return 0.002  # intra-region round trip
    value = INTER_REGION_RTT_MS.get((a, b)) or INTER_REGION_RTT_MS.get((b, a))
    if value is None:
        raise KeyError(f"no RTT data between {a!r} and {b!r}")
    return value / 1000.0


def aws_star(*, bandwidth: float = 1e9, source: str = "us-east-1",
             symmetric_jitter: bool = False) -> Scenario:
    """One probe service per Table 3 destination, all reached from ``source``.

    Each destination hangs off its own bridge so every pair
    ``(probe, target)`` traverses exactly the Table 3 latency and jitter.
    By default jitter rides only the forward direction, so an echo RTT's
    standard deviation equals the configured value; ``symmetric_jitter``
    jitters both directions, composing to sqrt(2) of the configured value.
    """
    builder = (Scenario.build("aws-star")
               .service("probe", image="ping")
               .bridge("igw")
               .link("probe", "igw", latency=0.0001, up=bandwidth))
    for region, (latency_ms, jitter_ms) in \
            AWS_REGION_LATENCY_FROM_US_EAST_1.items():
        service = f"target-{region}"
        builder.service(service, image="ping")
        if symmetric_jitter:
            builder.link("igw", service, latency=latency_ms / 1000.0,
                         up=bandwidth, jitter=jitter_ms / 1000.0)
        else:
            # Jitter only on the forward direction: two unidirectional
            # declarations (the builder's up/down shorthand is symmetric
            # in everything but bandwidth).
            builder.link("igw", service, latency=latency_ms / 1000.0,
                         up=bandwidth, jitter=jitter_ms / 1000.0,
                         bidirectional=False)
            builder.link(service, "igw", latency=latency_ms / 1000.0,
                         up=bandwidth, bidirectional=False)
    return builder


def aws_mesh(regions: Sequence[str], services_per_region: int = 1, *,
             bandwidth: float = 1e9, jitter_ms: float = 1.5,
             service_prefix: str = "node",
             rtt_override: Optional[Dict[Tuple[str, str], float]] = None,
             rtt_scale: float = 1.0) -> Scenario:
    """A geo-distributed deployment: one bridge per region, full mesh between.

    Inter-region links carry half the region pair's RTT in each direction;
    ``rtt_scale`` supports the Figure 11 what-if (halved latencies) and
    ``rtt_override`` lets callers substitute measured matrices.  Services
    are named ``{prefix}-{region}-{index}``.
    """
    builder = Scenario.build("aws-mesh")
    for region in regions:
        builder.bridge(f"br-{region}")
        for index in range(services_per_region):
            name = f"{service_prefix}-{region}-{index}"
            builder.service(name)
            builder.link(name, f"br-{region}", latency=0.0005, up=bandwidth)
    for i, region_a in enumerate(regions):
        for region_b in regions[i + 1:]:
            if rtt_override is not None:
                rtt = (rtt_override.get((region_a, region_b))
                       or rtt_override[(region_b, region_a)]) / 1000.0
            else:
                rtt = region_rtt(region_a, region_b)
            rtt *= rtt_scale
            builder.link(f"br-{region_a}", f"br-{region_b}",
                         latency=rtt / 2.0, up=bandwidth,
                         jitter=jitter_ms / 1000.0 / 2.0)
    return builder


# --------------------------------------------------------------------------
# The decentralized-throttling topology of §5.4 (Figure 8).
# --------------------------------------------------------------------------
# (bandwidth Mb/s, latency ms) for clients 1..3 on each side.
CLIENT_ACCESS_PROFILE = ((50e6, 0.010), (50e6, 0.005), (10e6, 0.005))


def throttling() -> Scenario:
    """Six clients behind two bridges, six servers behind a third:
    C1–C3 on B1 and C4–C6 on B2 with the 50/50/10 Mb/s access profile,
    every server on B3 at 50 Mb/s, B1—B2 at 50 Mb/s, B2—B3 at 100 Mb/s."""
    builder = Scenario.build("section54").bridges("b1", "b2", "b3")
    for index in range(1, 7):
        builder.service(f"c{index}", image="iperf-client")
        builder.service(f"s{index}", image="iperf-server")
    # Clients 1-3 on B1, clients 4-6 on B2, same access profile.
    for offset, bridge in ((0, "b1"), (3, "b2")):
        for position, (bandwidth, latency) in enumerate(CLIENT_ACCESS_PROFILE):
            builder.link(f"c{offset + position + 1}", bridge,
                         latency=latency, up=bandwidth)
    for index in range(1, 7):
        builder.link(f"s{index}", "b3", latency=0.005, up=50e6)
    builder.link("b1", "b2", latency=0.010, up=50e6)
    builder.link("b2", "b3", latency=0.010, up=100e6)
    return builder


# --------------------------------------------------------------------------
# Data-center fabrics (§6/§7 time-dilation studies).
# --------------------------------------------------------------------------
def fat_tree(k: int, *, bandwidth: float = 10e9, latency: float = 25e-6,
             hosts_per_edge: Optional[int] = None) -> Scenario:
    """A k-ary fat-tree [Al-Fares et al., SIGCOMM'08] with hosts on the
    edge layer; ``hosts_per_edge`` defaults to ``k/2`` (the full tree)."""
    if k < 2 or k % 2:
        raise ValueError(f"fat-tree arity must be even and >= 2, got {k}")
    half = k // 2
    if hosts_per_edge is None:
        hosts_per_edge = half
    if not 0 < hosts_per_edge <= half:
        raise ValueError(
            f"hosts_per_edge must be in 1..{half}, got {hosts_per_edge}")
    builder = Scenario.build(f"fat-tree-k{k}")

    cores = []
    for index in range(half * half):
        core = f"core{index}"
        builder.bridge(core)
        cores.append(core)

    host_index = 0
    for pod in range(k):
        aggregations = []
        for a in range(half):
            name = f"p{pod}-agg{a}"
            builder.bridge(name)
            aggregations.append(name)
            # Each aggregation switch connects to `half` cores: the a-th
            # aggregation switch uses cores [a*half, (a+1)*half).
            for c in range(half):
                builder.link(name, cores[a * half + c], latency=latency,
                             up=bandwidth)
        for e in range(half):
            edge = f"p{pod}-edge{e}"
            builder.bridge(edge)
            for aggregation in aggregations:
                builder.link(edge, aggregation, latency=latency, up=bandwidth)
            for _ in range(hosts_per_edge):
                host = f"h{host_index}"
                host_index += 1
                builder.service(host, image="workload")
                builder.link(host, edge, latency=latency, up=bandwidth)
    return builder
