"""Table 2 — bandwidth-shaping accuracy on a point-to-point topology.

Paper: Kollaps and Mininet both land ~4-7 % below every provisioned rate
from 128 Kb/s to 1 Gb/s (the htb + iPerf3 framing cost); Mininet cannot
shape above 1 Gb/s at all (N/A rows); Trickle with default buffers
overshoots wildly, and only tracks the target after tuning (~±2 %).
"""

from conftest import reproduce
from repro.experiments import table2


def test_table2_bandwidth_shaping(benchmark):
    reproduce(benchmark, table2).assert_all()
