"""The Emulation Core: one per application container (§3, §4.1).

A core is attached to its container's network namespace.  It owns the
container's TCAL, samples per-destination bandwidth usage each emulation
loop, and applies the enforcement (htb rates, netem loss) its Emulation
Manager computed.  Cores never talk to remote machines directly — the
Emulation Manager aggregates and disseminates on their behalf.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.tc.tcal import Tcal

__all__ = ["EmulationCore", "UsageSample"]

# Flows slower than this are treated as inactive (no metadata, no share).
ACTIVE_FLOW_THRESHOLD_BPS = 1e3


@dataclass(frozen=True)
class UsageSample:
    """One destination's measured usage over the last loop period.

    ``rate`` is the traffic the chain carried; ``refused_rate`` is offered
    load the htb turned away (back-pressure).  Their sum is the flow's
    *requested* bandwidth — §3's congestion model injects loss when the
    requested total on a link exceeds its capacity.
    """

    destination: str
    rate: float          # bits per second over the period
    htb_rate: float      # the rate that was being enforced meanwhile
    refused_rate: float = 0.0

    @property
    def requested(self) -> float:
        """Offered load: carried plus refused."""
        return self.rate + self.refused_rate

    @property
    def saturating(self) -> bool:
        """Whether the application pushed (close to) its whole allocation."""
        return self.rate >= 0.9 * self.htb_rate


class EmulationCore:
    """Monitor + enforcement agent for a single container."""

    def __init__(self, container: str, tcal: Tcal) -> None:
        self.container = container
        self.tcal = tcal
        self.polls = 0
        self._last_poll_time: float = 0.0

    def sample_usage(self, period: float, *,
                     now: float = None) -> Dict[str, UsageSample]:
        """Step (1)+(2) of the loop: clear state, read TCAL usage counters.

        Rates are computed against the *actual* elapsed time since the
        previous poll (like dividing kernel byte-counter deltas by wall
        clock), not the nominal period — otherwise scheduling drift between
        the poller and the traffic would alias into phantom rate spikes.
        """
        self.polls += 1
        if now is None:
            elapsed = period
        else:
            elapsed = max(now - self._last_poll_time, period * 0.1)
            self._last_poll_time = now
        samples: Dict[str, UsageSample] = {}
        for destination, (bits, refused) in self.tcal.poll_active().items():
            rate = bits / elapsed
            refused_rate = refused / elapsed
            # A fully back-pressured flow carries almost nothing but is
            # very much active: judge activity on the offered load.
            if rate + refused_rate < ACTIVE_FLOW_THRESHOLD_BPS:
                continue
            htb_rate = self.tcal.shaping_for(destination).htb.rate
            # The shaper physically caps egress at its rate; a counter
            # reading above it is sampling aliasing (burst credit, poll
            # drift), not traffic, and must not masquerade as
            # oversubscription — that would inject phantom congestion
            # loss into flows sitting exactly at their allocation.
            rate = min(rate, htb_rate)
            samples[destination] = UsageSample(destination, rate, htb_rate,
                                               refused_rate)
        return samples

    def enforce(self, destination: str, *, bandwidth: Optional[float] = None,
                loss: Optional[float] = None) -> bool:
        """Step (5): apply the manager's decision through the TCAL; whether
        that took a netlink write.

        The enforced rate never drops below twice the activity threshold:
        a chain throttled beneath the threshold would stop producing usage
        samples, vanish from the model, and stay throttled forever.
        """
        if bandwidth is not None:
            bandwidth = max(bandwidth, 2 * ACTIVE_FLOW_THRESHOLD_BPS)
        if loss is not None:
            loss = min(1.0, max(0.0, loss))
        return self._write(destination, bandwidth, loss)

    def restore(self, destination: str, bandwidth: float,
                loss: float) -> bool:
        """Reset a chain to its unconstrained collapsed-path properties;
        whether that took a netlink write.

        Applied to destinations with no active flow: the paper's model
        covers *active* flows only, so an idle chain must offer the path's
        full bandwidth to whatever starts next.
        """
        return self._write(destination, bandwidth, loss)

    def _write(self, destination: str, bandwidth: Optional[float],
               loss: Optional[float]) -> bool:
        """One netlink write per value the chain does not already carry
        (the steady state of a converged allocation costs none)."""
        tcal = self.tcal
        if not tcal.has_destination(destination):
            return False
        shaping = tcal.shaping_for(destination)
        wrote = False
        if bandwidth is not None and bandwidth != shaping.htb.rate:
            tcal.set_bandwidth(destination, bandwidth)
            wrote = True
        if loss is not None and loss != shaping.netem.loss:
            tcal.set_netem(destination, loss=loss)
            wrote = True
        return wrote
