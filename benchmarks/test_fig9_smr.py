"""Figure 9 — reproducing the BFT-SMaRt vs Wheat geo-replication study.

Paper: one replica + one client per region (Virginia, Oregon, Ireland,
São Paulo, Sydney), replicated counter, leader in Virginia.  The figure
shows 50th/90th-percentile client latency per region, original EC2 run
(left) vs Kollaps (right): Kollaps reproduces the EC2 results within 7.3 %
(Wheat, Ireland 90th) and 2.7 % (BFT-SMaRt).  The qualitative structure:
Wheat beats BFT-SMaRt in every region, and remote clients (São Paulo,
Sydney) pay the most.
"""

import pytest

from conftest import reproduce


@pytest.mark.experiment("fig9")
def test_fig9_smr_reproduction(sweep):
    reproduce(sweep).assert_all()
