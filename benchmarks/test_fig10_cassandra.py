"""Figure 10 — geo-replicated Cassandra: throughput/latency curve on Kollaps.

Paper: 4 replicas in Frankfurt + 4 in Sydney (RF = 2), 4 YCSB clients in
Frankfurt, 50/50 read/update, R = ONE / W = QUORUM.  The EC2 deployment
and the Kollaps emulation produce near-identical throughput-latency
curves: flat latency until the replicas saturate, then a sharp climb.
Here the "EC2" reference is the bare-metal run of the same workload over
the full physical topology; Kollaps is the collapsed emulation.
"""

from conftest import reproduce
from repro.experiments import fig10


def test_fig10_cassandra_curve(benchmark):
    reproduce(benchmark, fig10).assert_all()
