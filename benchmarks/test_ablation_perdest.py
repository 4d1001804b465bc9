"""Ablation — per-destination vs per-flow bandwidth enforcement (§3).

Kollaps "enforces bandwidth sharing per destination, not per flow", which
(together with only-active-flows reporting) is why Figure 3's metadata
traffic is flat in the number of containers.  This ablation measures the
metadata volume with per-destination aggregation (one record per container
pair, what Kollaps ships) against hypothetical per-flow reporting (one
record per TCP connection), for a memcached-style workload where clients
hold many connections to one server.
"""

import pytest

from conftest import reproduce


@pytest.mark.experiment("ablation-perdest")
def test_ablation_per_destination_aggregation(sweep):
    reproduce(sweep).assert_all()
