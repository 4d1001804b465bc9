"""Figure 4 — memcached throughput is invariant to physical distribution.

Paper: a 4-region geo-topology with one memcached server and three memtier
clients per region (each server handles two local clients and one remote),
deployed over 1, 2, 4, 8 and 16 physical hosts.  Aggregate client
throughput stays flat as hosts are added (left plot), and per-host metadata
traffic stays in the tens of KB/s (right plot).
"""

from conftest import reproduce
from repro.experiments import fig4


def test_fig4_memcached_distribution(benchmark):
    reproduce(benchmark, fig4).assert_all()
