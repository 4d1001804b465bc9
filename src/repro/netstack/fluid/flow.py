"""One fluid flow: congestion-window state and TCP dynamics.

Reno follows RFC 5681 AIMD: exponential slow start to ``ssthresh``, then one
MSS of window growth per RTT, halving on loss.  Cubic follows Ha et al.
[43]: after a loss the window shrinks by ``beta = 0.7`` and then grows along
``W(t) = C (t - K)^3 + W_max`` with ``K = cbrt(W_max * (1-beta) / C)`` —
concave up to the previous maximum, then convex probing beyond it.
"""

from __future__ import annotations

import math
from typing import Optional

__all__ = ["FluidFlow"]

_MSS_BITS = 1448 * 8.0
# Cubic constants (C in MSS/s^3 as per the paper, converted to bits).
_CUBIC_C = 0.4
_CUBIC_BETA = 0.7


class FluidFlow:
    """A bulk transport flow between two containers."""

    def __init__(self, key, source: str, destination: str, *,
                 protocol: str = "tcp", congestion_control: str = "cubic",
                 demand: float = float("inf"),
                 size_bits: Optional[float] = None,
                 rtt: float = 0.05, mss_bits: float = _MSS_BITS,
                 start_time: float = 0.0) -> None:
        if protocol not in ("tcp", "udp"):
            raise ValueError(f"unknown protocol {protocol!r}")
        if congestion_control not in ("reno", "cubic"):
            raise ValueError(f"unknown congestion control {congestion_control!r}")
        self.key = key
        self.source = source
        self.destination = destination
        self.protocol = protocol
        self.congestion_control = congestion_control
        self.demand = demand
        self.size_bits = size_bits  # None = open-ended (iperf style)
        self.rtt = max(rtt, 1e-4)
        self.mss_bits = mss_bits
        self.start_time = start_time
        # TCP state.  The window cap models the socket buffer limit
        # (net.core.rmem_max-scale): relevant under pure back-pressure,
        # where nothing else bounds growth.
        self.cwnd = 10 * mss_bits  # RFC 6928 initial window
        self.max_cwnd = 1e9
        self.ssthresh = float("inf")
        self.in_slow_start = True
        self._last_backoff = -float("inf")
        # Cubic state.
        self._w_max = self.cwnd
        self._epoch_start: Optional[float] = None
        # Telemetry.
        self.achieved_rate = 0.0
        self.bits_transferred = 0.0
        self.loss_events = 0
        self.finished = False

    # ------------------------------------------------------------- rates
    def desired_rate(self) -> float:
        """The rate the sender offers this step."""
        if self.finished:
            return 0.0
        if self.protocol == "udp":
            return self.demand
        window_rate = self.cwnd / self.rtt
        return window_rate if window_rate < self.demand else self.demand

    # ---------------------------------------------------------- dynamics
    def advance(self, now: float, dt: float, achieved: float,
                lost: bool) -> None:
        """Integrate one step: account transfer, grow or shrink the window."""
        self.achieved_rate = achieved
        self.bits_transferred += achieved * dt
        if self.size_bits is not None and \
                self.bits_transferred >= self.size_bits:
            self.finished = True
            return
        if self.protocol == "udp":
            return
        # One multiplicative decrease per congestion *event*: a loss train
        # within one reaction window (a few RTTs; floor of one emulation
        # period, the granularity of injected netem loss) collapses into a
        # single backoff, as fast recovery does.
        if lost and now - self._last_backoff >= max(4.0 * self.rtt, 0.04):
            self._backoff(now)
            return
        self._grow(now, dt, achieved)
        if self.cwnd > self.max_cwnd:
            self.cwnd = self.max_cwnd

    def _backoff(self, now: float) -> None:
        self.loss_events += 1
        self._last_backoff = now
        self.in_slow_start = False
        if self.congestion_control == "reno":
            self.ssthresh = max(2 * self.mss_bits, self.cwnd / 2.0)
            self.cwnd = self.ssthresh
        else:  # cubic
            self._w_max = self.cwnd
            self.cwnd = max(2 * self.mss_bits, self.cwnd * _CUBIC_BETA)
            self._epoch_start = now

    def _grow(self, now: float, dt: float, achieved: float) -> None:
        # Application-limited flows do not inflate their window (RFC 7661):
        # only a window-limited one, offering cwnd/RTT, grows.
        if not self.cwnd / self.rtt < self.demand:
            return
        # Shaper-limited flows do not either: when the achieved rate sits
        # well below cwnd/RTT the qdisc, not the window, is the binding
        # constraint — cwnd only grows on ACKs of delivered data, and TSQ
        # throttles the socket before more packets can enter flight (§3's
        # "TCP Small Queues" discussion).  Growth therefore never *crosses*
        # the shaper limit; a window already above it (the path shrank)
        # freezes where it is — it deflates only on loss.
        shaper_limit = achieved * self.rtt / 0.85
        if self.cwnd >= shaper_limit:
            return
        before = self.cwnd
        if self.in_slow_start and self.cwnd < self.ssthresh:
            # Doubling per RTT: dW/dt = W * ln2 / RTT (fluid form).
            self.cwnd += self.cwnd * math.log(2.0) * dt / self.rtt
            if self.cwnd >= self.ssthresh:
                self.cwnd = self.ssthresh
                self.in_slow_start = False
        else:
            self.in_slow_start = False
            if self.congestion_control == "reno":
                # One MSS per RTT.
                self.cwnd += self.mss_bits * dt / self.rtt
            else:
                self._grow_cubic(now, dt)
        if self.cwnd > shaper_limit:
            self.cwnd = max(before, shaper_limit)

    def _grow_cubic(self, now: float, dt: float) -> None:
        if self._epoch_start is None:
            self._epoch_start = now
        w_max_mss = self._w_max / self.mss_bits
        k = ((w_max_mss * (1.0 - _CUBIC_BETA)) / _CUBIC_C) ** (1.0 / 3.0)
        t = now + dt - self._epoch_start
        target_mss = _CUBIC_C * (t - k) ** 3 + w_max_mss
        target = target_mss * self.mss_bits
        if target > self.cwnd:
            # Approach the cubic target within one RTT (standard pacing).
            self.cwnd += (target - self.cwnd) * min(1.0, dt / self.rtt)
        else:
            # TCP-friendly region: at least Reno's growth.
            self.cwnd += self.mss_bits * dt / self.rtt

    def describe(self) -> str:
        kind = (self.congestion_control if self.protocol == "tcp"
                else "udp")
        return (f"{self.source}->{self.destination} [{kind}] "
                f"rate={self.achieved_rate / 1e6:.2f}Mbps "
                f"cwnd={self.cwnd / self.mss_bits:.1f}mss")
