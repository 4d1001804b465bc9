"""Figure 5 — deviation from bare metal for long- and short-lived flows.

Paper: one server, two clients behind a 1 Gb/s switch.  Long-lived iPerf3
flows under Cubic and Reno, and short-lived wrk2 HTTP traffic, are run on
bare metal, Kollaps and Mininet; the deviation of measured bandwidth from
the bare-metal baseline stays below ~10 % (long-lived) and ~2 %
(short-lived), with Kollaps generally at least as close as Mininet.
"""

from conftest import reproduce
from repro.experiments import fig5


def test_fig5_long_and_short_flows(benchmark):
    reproduce(benchmark, fig5).assert_all()
