"""iPerf3-like bulk throughput measurement.

The ``iperf`` workload kind (:class:`~repro.scenario.workloads.IperfWorkload`)
drives a saturating flow on any backend and reports an :class:`IperfResult`:
like the real iPerf3, what it measures is *application goodput* — payload
bytes — so the wire rate is discounted by the TCP/IP framing overhead (1448
payload bytes per 1514-byte Ethernet frame — about 4.4 %, the bulk of the
systematic "-5 %" rows of Table 2).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.series import Series

__all__ = ["IperfResult", "GOODPUT_FACTOR"]

# 1448 bytes of payload per 1514-byte frame (MSS over Ethernet + headers).
GOODPUT_FACTOR = 1448.0 / 1514.0


@dataclass(frozen=True)
class IperfResult:
    """Outcome of one iperf run."""

    mean_goodput: float            # application-visible bits/s
    mean_wire_rate: float          # shaped on-the-wire bits/s
    duration: float
    series: Series                 # (time, goodput) samples

    def relative_error(self, target_rate: float) -> float:
        """Deviation of goodput from a target link rate (Table 2 metric)."""
        return self.mean_goodput / target_rate - 1.0
