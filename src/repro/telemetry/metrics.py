"""Metrics: counters and fixed-bucket histograms.

A :class:`MetricsRegistry` is a named bag of instruments whose
:meth:`~MetricsRegistry.snapshot` is a plain, deterministically ordered
dict — picklable, JSON-serialisable, and mergeable.  That shape is the
whole point: every traced process (the CLI and each campaign pool
worker) leaves its snapshot beside its span file,
:func:`repro.telemetry.load_metrics` :meth:`~MetricsRegistry.merge`\\ s
them into one view for ``repro trace summary``, and tests compare
snapshots with ``==``.

Instruments are cheap enough to leave always-on in warm paths (one lock
acquire + one float add); the *hot* paths (per fluid step, per solver
iteration) additionally hide behind :func:`repro.telemetry.enabled` so a
disabled run pays only a boolean check.
"""

from __future__ import annotations

import bisect
import threading
from typing import Any, Dict, List, Mapping, Optional, Sequence

__all__ = ["Counter", "Histogram", "MetricsRegistry", "DEFAULT_BUCKETS"]

#: Default histogram bucket upper bounds, in seconds: spans the range
#: from one fluid step (~1 ms) to a long campaign point (minutes).
DEFAULT_BUCKETS: Sequence[float] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 30.0, 60.0, 300.0,
)


class Counter:
    """A monotonically increasing sum (calls, iterations, seconds)."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str, lock: threading.Lock) -> None:
        self.name = name
        self.value = 0.0
        self._lock = lock

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value += amount

    def snapshot(self) -> Dict[str, Any]:
        return {"type": "counter", "value": self.value}


class Histogram:
    """Fixed-bucket histogram with count/sum/min/max.

    Buckets are cumulative-style upper bounds plus an implicit +inf
    overflow bucket, so merged snapshots from workers with identical
    bucket layouts add element-wise.
    """

    __slots__ = ("name", "bounds", "counts", "count", "sum",
                 "min", "max", "_lock")

    def __init__(self, name: str, lock: threading.Lock,
                 buckets: Sequence[float] = DEFAULT_BUCKETS) -> None:
        self.name = name
        self.bounds: List[float] = sorted(float(b) for b in buckets)
        self.counts: List[int] = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self._lock = lock

    def observe(self, value: float) -> None:
        value = float(value)
        index = bisect.bisect_left(self.bounds, value)
        with self._lock:
            self.counts[index] += 1
            self.count += 1
            self.sum += value
            if self.min is None or value < self.min:
                self.min = value
            if self.max is None or value > self.max:
                self.max = value

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def snapshot(self) -> Dict[str, Any]:
        return {
            "type": "histogram",
            "buckets": list(self.bounds),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
        }


class MetricsRegistry:
    """A thread-safe, mergeable collection of named instruments."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: Dict[str, Any] = {}

    # ------------------------------------------------------------- creation
    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def histogram(self, name: str,
                  buckets: Sequence[float] = DEFAULT_BUCKETS) -> Histogram:
        with self._lock:
            instrument = self._instruments.get(name)
            if instrument is None:
                instrument = Histogram(name, self._lock, buckets)
                self._instruments[name] = instrument
            elif not isinstance(instrument, Histogram):
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{type(instrument).__name__}")
            return instrument

    def _get(self, name: str, cls: type) -> Any:
        with self._lock:
            instrument = self._instruments.get(name)
            if instrument is None:
                instrument = cls(name, self._lock)
                self._instruments[name] = instrument
            elif not isinstance(instrument, cls):
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{type(instrument).__name__}")
            return instrument

    # ------------------------------------------------------------ snapshots
    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """Deterministic (name-sorted) plain-dict copy of every metric."""
        with self._lock:
            return {name: self._instruments[name].snapshot()
                    for name in sorted(self._instruments)}

    def merge(self, snapshot: Mapping[str, Mapping[str, Any]]) -> None:
        """Fold another registry's snapshot into this one.

        Counters and histograms add.
        """
        for name in sorted(snapshot):
            doc = snapshot[name]
            kind = doc.get("type")
            if kind == "counter":
                self.counter(name).inc(doc.get("value", 0.0))
            elif kind == "histogram":
                hist = self.histogram(name, doc.get("buckets",
                                                    DEFAULT_BUCKETS))
                incoming = doc.get("counts", [])
                with self._lock:
                    if len(incoming) == len(hist.counts):
                        for i, c in enumerate(incoming):
                            hist.counts[i] += c
                    hist.count += doc.get("count", 0)
                    hist.sum += doc.get("sum", 0.0)
                    low, high = doc.get("min"), doc.get("max")
                    if low is not None and (hist.min is None
                                            or low < hist.min):
                        hist.min = low
                    if high is not None and (hist.max is None
                                             or high > hist.max):
                        hist.max = high

    def delta_since(self, before: Mapping[str, Mapping[str, Any]]
                    ) -> Dict[str, float]:
        """Per-counter increase between an earlier snapshot and now.

        Only counters participate — this is how the engine baseline
        attributes global solver/collapse work to the one run it timed.
        """
        now = self.snapshot()
        delta: Dict[str, float] = {}
        for name, doc in now.items():
            if doc.get("type") != "counter":
                continue
            prior = before.get(name, {}).get("value", 0.0) \
                if name in before else 0.0
            delta[name] = doc["value"] - prior
        return delta

    def clear(self) -> None:
        with self._lock:
            self._instruments.clear()
