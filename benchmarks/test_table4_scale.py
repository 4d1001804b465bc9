"""Table 4 — RTT accuracy on large scale-free topologies.

Paper: preferential-attachment topologies of 1000/2000/4000 elements;
end-nodes ping random end-nodes for 10 minutes and the RTTs are compared
against the theoretical shortest-path values.  MSE (ms^2):

    size   Kollaps   Mininet   Maxinet
    1000   0.0261    0.0079    28.0779
    2000   0.0384    N/A       347.5303
    4000   0.0721    N/A       N/A

Mininet is slightly better at 1000 (no cross-machine hops) but cannot go
further; Maxinet's controller pushes it three orders of magnitude off.
Run at the paper's sizes: a point builds the shortest-path trees of its
probe pairs' endpoints, not of every service.
"""

import pytest

from conftest import reproduce


@pytest.mark.experiment("table4")
def test_table4_large_scale_rtt(sweep):
    reproduce(sweep).assert_all()
