"""A ``(time, value)`` measurement series stored as two packed columns.

Per-sample measurements are what grows with run length: every fluid step
samples each flow, every memcached operation records a latency.  A
:class:`Series` keeps its samples in two ``array('d')`` columns, eight
bytes a float, where a tuple of ``(time, value)`` pairs pays a tuple and
a float object per sample (about 80-100 bytes).  It still reads as the
pairs: it iterates as ``(time, value)`` tuples, supports ``len`` and
indexing, and compares equal to another series or to a sequence of the
same pairs.

One difference from a tuple of pairs: array equality compares floats by
value, so a NaN sample never equals itself, where tuples holding the
same NaN object compare equal.  No measurement carries a NaN.

A store record carries a series packed (:meth:`Series.packed`): each
column as base64 text of its little-endian float64 bytes, so every
sample, ``-0.0``, infinities and NaN included, reads back to the bit.
"""

from __future__ import annotations

import sys
from array import array
from binascii import a2b_base64, b2a_base64
from bisect import bisect_left
from typing import Dict, Iterable, Iterator, Mapping, Tuple

__all__ = ["Series"]

# Packed columns are little-endian whatever the host's byte order.
_SWAP = sys.byteorder == "big"


def _pack(column: "array") -> str:
    if _SWAP:
        column = array("d", column)
        column.byteswap()
    return b2a_base64(column.tobytes(), newline=False).decode("ascii")


def _unpack(text: str) -> "array":
    column = array("d")
    column.frombytes(a2b_base64(text))
    if _SWAP:
        column.byteswap()
    return column


class Series:
    """Samples as ``times`` and ``values`` columns of equal length.

    ``Series(pairs)`` packs any iterable of ``(time, value)`` pairs;
    :meth:`of` takes the two columns as they are.
    """

    __slots__ = ("times", "values")

    def __init__(self, pairs: Iterable[Tuple[float, float]] = ()) -> None:
        times = array("d")
        values = array("d")
        for time, value in pairs:
            times.append(time)
            values.append(value)
        self.times = times
        self.values = values

    @classmethod
    def of(cls, times: "array", values: "array") -> "Series":
        """A series over two ``array('d')`` columns, which it keeps (no
        copy): the caller hands them over."""
        if len(times) != len(values):
            raise ValueError(f"columns differ in length: {len(times)} "
                             f"times, {len(values)} values")
        series = cls.__new__(cls)
        series.times = times
        series.values = values
        return series

    def packed(self) -> Dict[str, str]:
        """``{"times": ..., "values": ...}``, each column as base64 text
        of its little-endian float64 bytes: the store record's form."""
        return {"times": _pack(self.times), "values": _pack(self.values)}

    @classmethod
    def unpacked(cls, data: Mapping[str, str]) -> "Series":
        """The series :meth:`packed` wrote, bit for bit."""
        return cls.of(_unpack(data["times"]), _unpack(data["values"]))

    def __len__(self) -> int:
        return len(self.times)

    def __iter__(self) -> Iterator[Tuple[float, float]]:
        return zip(self.times, self.values)

    def __getitem__(self, index: int) -> Tuple[float, float]:
        return self.times[index], self.values[index]

    def __eq__(self, other) -> bool:
        if isinstance(other, Series):
            return self.times == other.times and self.values == other.values
        try:
            pairs = [tuple(pair) for pair in other]
        except TypeError:
            return NotImplemented
        return list(self) == pairs

    def __repr__(self) -> str:
        return f"Series({list(self)!r})"

    def mean(self, start: float = 0.0, end: float = float("inf")) -> float:
        """Mean value of the samples timed in ``[start, end)``; 0.0 when
        there are none.

        The window is found by bisection on the time column, which must be
        sorted, and its values are summed left to right, so the mean is
        the one a scan of every sample would compute, to the bit.
        """
        first = bisect_left(self.times, start)
        last = bisect_left(self.times, end)
        if last <= first:
            return 0.0
        return sum(self.values[first:last]) / (last - first)
