"""Figure 3 — metadata network traffic vs containers, flows and hosts.

Paper: dumbbell topologies with (C containers, F flows) on 1–4 physical
hosts, iPerf3 at 50 Mb/s through the shared link.  Metadata traffic is zero
on one host (shared memory only), grows with the number of *hosts*, and is
essentially flat in the number of *containers* — the decentralization
claim.  Absolute volume stays in the hundreds of KB/s at (160, 80, 4).
"""

from conftest import reproduce
from repro.experiments import fig3


def test_fig3_metadata_traffic(benchmark):
    reproduce(benchmark, fig3).assert_all()
