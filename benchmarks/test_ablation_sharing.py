"""Ablations on the bandwidth-sharing design (§3 design choices).

Three knobs the paper's design fixes, evaluated on the §5.4 topology:

1. **RTT-aware vs plain max-min** — dropping the 1/RTT weights collapses
   the 23.08/26.92 split of Figure 8's two-flow stage to 25/25, i.e. the
   emulation would no longer mimic TCP Reno's RTT bias.
2. **Exact fixed point vs the literal two-step heuristic** — one
   redistribution pass is exact on most stages but misallocates when
   surplus must cascade across two bottlenecks (the five-flow stage).
3. **Congestion loss injection on/off** — §3 "Congestion": without netem
   loss injection the emulation cannot converge TCP flows down when the
   topology shrinks mid-flow, because htb back-pressure alone gives the
   congestion-control algorithm nothing to react to.
"""

import pytest

from conftest import reproduce


@pytest.mark.experiment("ablation-sharing")
def test_ablation_sharing_design_choices(sweep):
    reproduce(sweep).assert_all()
