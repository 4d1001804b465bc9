"""A fixed reference routine: how fast is this machine *right now*?

The reference box is a shared 2-core VM whose speed drifts by tens of
percent for minutes at a time (other tenants), far more than any bound a
regression gate could use.  The harness therefore runs this routine —
interpreter work of the kind the program does: heap pushes and pops with
tuple compares, dict inserts, object allocation, attribute reads, string
formatting, a sort — between the measured children, and reports every time
metric multiplied by ``NOMINAL_S / best reference time``: seconds *as the
reference box's quiet speed would have read them*.  Raw times and the
reference times are kept in the ledger beside the calibrated ones.

The routine is deliberately not part of ``repro``: a change to the program
cannot move it, so a real speed-up moves the calibrated metric exactly as
it moves the raw one.
"""

from __future__ import annotations

import heapq
import time
from typing import Tuple

__all__ = ["NOMINAL_S", "reference_s"]

#: Best time of :func:`reference_s` on the reference box, quiet (python
#: 3.11.7).  Only fixes the unit: every calibrated time scales with it.
NOMINAL_S = 0.125


class _Cell:
    __slots__ = ("key", "weight", "link")

    def __init__(self, key: int) -> None:
        self.key = key
        self.weight = float(key)
        self.link = None


def reference_s() -> Tuple[float, float]:
    """Run the fixed routine once; (wall, CPU) seconds it took.

    Both, because they part company when the hypervisor steals the vCPU:
    wall times are calibrated by the wall reading, CPU times by the CPU one.
    """
    started, started_cpu = time.perf_counter(), time.process_time()
    heap, table = [], {}
    for index in range(40_000):
        key = (index * 7919) % 100_003
        table[key] = (index, float(index), str(index))
        heapq.heappush(heap, (key, index))
    while heap:
        heapq.heappop(heap)
    cells = [_Cell(index) for index in range(120_000)]
    total = 0
    for cell in cells:
        total += cell.key
    sorted(f"{key}:{value[1]:.6g}" for key, value in table.items())
    return (time.perf_counter() - started,
            time.process_time() - started_cpu)
