"""Figure 8 — decentralized bandwidth throttling with staggered clients.

Paper (§5.4): six clients start 60 s apart on the three-bridge topology,
then stop in reverse order.  The RTT-aware min-max model predicts every
stage's shares analytically (23.08/26.92, 18.45/21.55/10, ...,
15.04/17.55/10/21.06/26.33/10 Mb/s); the decentralized emulation tracks
those values within a few percent, re-converging at every arrival and
departure.  Time is scaled 6x (10 s per stage).
"""

import pytest

from conftest import reproduce


@pytest.mark.experiment("fig8")
def test_fig8_decentralized_throttling(sweep):
    reproduce(sweep).assert_all()
