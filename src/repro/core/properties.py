"""End-to-end property composition along a path (§3).

Given a path ``P = {l1, .., ln}`` the emergent end-to-end properties are::

    Latency(P)      = Σ Latency(li)
    Jitter(P)       = sqrt( Σ Jitter(li)^2 )
    Loss(P)         = 1 - Π (1 - Loss(li))
    maxBandwidth(P) = min Bandwidth(li)

Latencies add; jitters add in variance (independent per-hop delay noise);
loss composes as the complement of per-hop delivery probabilities; the
narrowest link caps bandwidth.  The path's delay noise is drawn uniformly
when every jittered link of it is (``jitter_distribution: uniform``) and
normally otherwise: variances add whatever the shapes, and a mix of shapes
tends to the normal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.topology.model import LinkProperties

__all__ = ["PathProperties", "compose_path"]


@dataclass(frozen=True)
class PathProperties:
    """End-to-end properties of a collapsed path (SI units)."""

    latency: float
    jitter: float
    loss: float
    bandwidth: float
    hops: int
    jitter_distribution: str = "normal"


_EMPTY = PathProperties(latency=0.0, jitter=0.0, loss=0.0,
                        bandwidth=float("inf"), hops=0)


def compose_path(links: Sequence[LinkProperties]) -> PathProperties:
    """Collapse a sequence of link properties into end-to-end properties.

    Inputs and outputs are SI base units: latency/jitter in seconds,
    bandwidth in bits/s, loss a probability in [0, 1].  One pass over the
    links (``O(n)``), pure float arithmetic, no rounding — identical input
    sequences produce bit-identical results, which the collapse memo's
    incremental tier relies on (it must reproduce a full recompute
    exactly; see :mod:`repro.core.collapse`).
    """
    latency = 0.0
    jitter_variance = 0.0
    delivery = 1.0
    bandwidth = float("inf")
    normal = False              # some jittered link draws normally
    for link in links:
        latency += link.latency
        jitter_variance += link.jitter ** 2
        if link.jitter and link.jitter_distribution != "uniform":
            normal = True
        delivery *= 1.0 - link.loss
        bandwidth = min(bandwidth, link.bandwidth)
    if not links:
        return _EMPTY
    return PathProperties(
        latency=latency,
        jitter=math.sqrt(jitter_variance),
        loss=1.0 - delivery,
        bandwidth=bandwidth,
        hops=len(links),
        jitter_distribution="normal" if normal or not jitter_variance
        else "uniform",
    )
