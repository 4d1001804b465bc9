"""Table 2 — bandwidth-shaping accuracy on a point-to-point topology.

Paper: Kollaps and Mininet both land ~4-7 % below every provisioned rate
from 128 Kb/s to 1 Gb/s (the htb + iPerf3 framing cost); Mininet cannot
shape above 1 Gb/s at all (N/A rows); Trickle with default buffers
overshoots wildly, and only tracks the target after tuning (~±2 %).
"""

import pytest

from conftest import reproduce


@pytest.mark.experiment("table2")
def test_table2_bandwidth_shaping(sweep):
    reproduce(sweep).assert_all()
