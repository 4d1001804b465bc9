"""netem qdisc: delay, jitter and packet loss.

Kollaps applies latency, jitter and loss with a netem qdisc chained in front
of the htb class (§3).  Per-packet delay is ``latency + noise`` where noise
follows the configured distribution — the paper's default is a normal
distribution whose standard deviation equals the link's jitter attribute; a
uniform alternative is provided (the composition formulas in §3 mention
both).  Samples are truncated so a packet is never delivered before the
speed-of-light latency floor.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

__all__ = ["NetemQdisc"]


@dataclass(slots=True)
class NetemQdisc:
    """Delay/jitter/loss stage for one destination."""

    latency: float = 0.0
    jitter: float = 0.0
    loss: float = 0.0
    distribution: str = "normal"
    rng: Optional[random.Random] = None
    packets_dropped: int = field(default=0, repr=False)
    packets_delayed: int = field(default=0, repr=False)

    def configure(self, latency: Optional[float] = None,
                  jitter: Optional[float] = None,
                  loss: Optional[float] = None,
                  distribution: Optional[str] = None) -> None:
        """Update any subset of the netem parameters (netlink-style)."""
        if latency is not None:
            self.latency = latency
        if jitter is not None:
            self.jitter = jitter
        if loss is not None:
            if not 0.0 <= loss <= 1.0:
                raise ValueError(f"loss outside [0,1]: {loss}")
            self.loss = loss
        if distribution is not None:
            if distribution not in ("normal", "uniform"):
                raise ValueError(f"unknown distribution {distribution!r}")
            self.distribution = distribution

    def sample_delay(self) -> float:
        """One per-packet delay draw (seconds)."""
        if self.jitter <= 0.0:
            return self.latency
        rng = self.rng or random
        if self.distribution == "normal":
            noise = rng.gauss(0.0, self.jitter)
        else:
            # Uniform with matching standard deviation: half-width = sqrt(3)σ.
            half_width = self.jitter * (3.0 ** 0.5)
            noise = rng.uniform(-half_width, half_width)
        # Never deliver earlier than half the nominal latency: netem clamps
        # negative offsets, and physical links have a propagation floor.
        return max(self.latency * 0.5, self.latency + noise)

    def process(self) -> Optional[float]:
        """Process one packet: ``None`` means dropped, else the added delay."""
        loss = self.loss
        if loss > 0.0 and (self.rng or random).random() < loss:
            self.packets_dropped += 1
            return None
        self.packets_delayed += 1
        return self.sample_delay()
