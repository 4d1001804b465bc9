"""Ablation — pre-computed vs online dynamic-topology handling (§3, §6).

The paper pre-computes the whole graph sequence offline because online
recomputation of all-pairs shortest paths "could take several seconds for
large graphs, precluding accurate emulation of sub-second dynamics".  This
benchmark quantifies that: the cost of applying one pre-computed state swap
versus collapsing a large topology from scratch at event time, and the
per-destination TCAL-update overhead per dynamic event (micro-benchmark of
the engine's swap path).
"""

import pytest

from conftest import reproduce


@pytest.mark.experiment("ablation-precompute")
def test_ablation_precompute_vs_online(sweep):
    reproduce(sweep).assert_all()
