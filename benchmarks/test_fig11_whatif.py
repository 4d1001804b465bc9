"""Figure 11 — the what-if scenario: halve the inter-region latency.

Paper: keep the Figure 10 deployment but move the 4 Sydney replicas to
Seoul (ap-northeast), halving the inter-region RTT.  Cassandra responds as
expected: update latencies drop by about half (reads, already local, barely
move) and the saturation point shifts to higher throughput.  In Kollaps
this is a one-line change to the topology description.
"""

from conftest import reproduce
from repro.experiments import fig11


def test_fig11_halved_latency(benchmark):
    reproduce(benchmark, fig11).assert_all()
