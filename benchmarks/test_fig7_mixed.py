"""Figure 7 — mixed long- and short-lived flows across three hosts.

Paper: host 1 runs an HTTP server and an iPerf3 client, host 2 runs a wrk2
client against host 1, host 3 runs the iPerf3 server.  The long-lived flow
runs for the whole experiment; the wrk2 client is active only in the
middle third.  Kollaps and Mininet both stay within a few percent of bare
metal on each host's measured bandwidth, with a spike at the transitions.
"""

from conftest import reproduce
from repro.experiments import fig7


def test_fig7_mixed_flows(benchmark):
    reproduce(benchmark, fig7).assert_all()
