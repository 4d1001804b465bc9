"""u32 two-level hash filter.

The real u32 classifier offers no true hashing — only a 256-entry index — so
Kollaps builds a two-level table: the destination address's *third* octet
selects the first-level bucket and the *fourth* octet the second-level slot,
giving collision-free constant-time lookup inside a /16 (§3).  This module
reproduces that structure literally (two levels of 256-entry arrays) so the
constant-lookup property is structural, not accidental.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.tc.ip import Ipv4Address

__all__ = ["U32Filter"]


#: The first level of every filter that holds no rule yet: shared and
#: read-only, so a container that never sends owns no table.
_NO_BUCKETS = (None,) * 256


class U32Filter:
    """Maps destination IPv4 addresses to class identifiers."""

    def __init__(self) -> None:
        # First level: indexed by third octet; made by the first rule, its
        # entries lazily created 256-slot second-level tables indexed by
        # the fourth octet.
        self._level_one: Sequence[Optional[List[Optional[int]]]] = \
            _NO_BUCKETS
        self.rules = 0

    def add_match(self, address: Ipv4Address, class_id: int) -> None:
        """Install ``address -> class_id``; replaces an existing rule."""
        if self._level_one is _NO_BUCKETS:
            self._level_one = [None] * 256
        bucket = self._level_one[address.third_octet]
        if bucket is None:
            bucket = self._level_one[address.third_octet] = [None] * 256
        if bucket[address.fourth_octet] is None:
            self.rules += 1
        bucket[address.fourth_octet] = class_id

    def classify(self, address: Ipv4Address) -> Optional[int]:
        """Constant-time lookup; ``None`` when no rule matches."""
        bucket = self._level_one[address.third_octet]
        if bucket is None:
            return None
        return bucket[address.fourth_octet]

    def remove_match(self, address: Ipv4Address) -> None:
        bucket = self._level_one[address.third_octet]
        if bucket is None or bucket[address.fourth_octet] is None:
            raise KeyError(f"no filter rule for {address}")
        bucket[address.fourth_octet] = None
        self.rules -= 1
