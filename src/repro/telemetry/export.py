"""Trace readers: JSONL loading, Chrome export, and time-share summaries.

The writers in :mod:`repro.telemetry.spans` emit one JSON object per
finished span into ``trace-<pid>.jsonl`` files.  This module is the read
side: it loads a trace directory (or a single file) back into span
dicts, converts them to the Chrome ``trace_event`` format that
``about:tracing`` and Perfetto open directly, and computes the
aggregates behind ``repro trace summary`` / ``repro trace top``.

Layer attribution uses *self time* — a span's duration minus the
duration of its direct children — so nested spans (point → backend
phase → solver) never double-count toward their layer's share.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

from .metrics import MetricsRegistry

__all__ = ["load_trace", "to_chrome", "summarize", "top_spans",
           "format_summary", "format_top", "write_metrics", "load_metrics"]


def load_trace(source: str) -> List[Dict[str, Any]]:
    """Read span records from a trace file or every ``trace-*.jsonl``
    (and ``*.jsonl`` fallback) in a trace directory."""
    paths: List[str] = []
    if os.path.isdir(source):
        names = sorted(os.listdir(source))
        paths = [os.path.join(source, n) for n in names
                 if n.startswith("trace-") and n.endswith(".jsonl")]
        if not paths:
            paths = [os.path.join(source, n) for n in names
                     if n.endswith(".jsonl")]
    elif os.path.isfile(source):
        paths = [source]
    else:
        raise FileNotFoundError(f"no trace at {source}")

    spans: List[Dict[str, Any]] = []
    for path in paths:
        with open(path, "r", encoding="utf-8") as handle:
            for line_no, line in enumerate(handle, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise ValueError(
                        f"{path}:{line_no}: invalid span record: {exc}"
                    ) from exc
                if "name" in record and "dur" in record:
                    spans.append(record)
    return spans


def write_metrics(directory: str,
                  snapshot: Mapping[str, Mapping[str, Any]]) -> None:
    """Leave this process's registry snapshot beside its span file, as
    ``metrics-<pid>.json`` (replaced whole on every flush)."""
    path = os.path.join(directory, f"metrics-{os.getpid()}.json")
    with open(path + ".tmp", "w", encoding="utf-8") as handle:
        json.dump(snapshot, handle, sort_keys=True)
        handle.write("\n")
    os.replace(path + ".tmp", path)


def load_metrics(source: str) -> Dict[str, Dict[str, Any]]:
    """Every process's ``metrics-<pid>.json`` in a trace directory, merged
    (counters and histograms add); empty for a single trace file."""
    merged = MetricsRegistry()
    if os.path.isdir(source):
        for name in sorted(os.listdir(source)):
            if name.startswith("metrics-") and name.endswith(".json"):
                with open(os.path.join(source, name), "r",
                          encoding="utf-8") as handle:
                    merged.merge(json.load(handle))
    return merged.snapshot()


# --------------------------------------------------------------- chrome
def to_chrome(spans: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """Convert span records to a Chrome ``trace_event`` document.

    Each span becomes a ``"ph": "X"`` complete event with microsecond
    timestamps; pid/tid map straight onto trace rows so multi-process
    campaign traces line up per worker.
    """
    events: List[Dict[str, Any]] = []
    for span in spans:
        event: Dict[str, Any] = {
            "name": span["name"],
            "ph": "X",
            "ts": round(span.get("start", 0.0) * 1e6, 3),
            "dur": round(span.get("dur", 0.0) * 1e6, 3),
            "pid": span.get("pid", 0),
            "tid": span.get("tid", 0),
            "cat": span["name"].split(".", 1)[0],
        }
        if span.get("attrs"):
            event["args"] = span["attrs"]
        events.append(event)
    return {"traceEvents": events, "displayTimeUnit": "ms"}


# --------------------------------------------------------------- summary
def _self_times(spans: List[Dict[str, Any]]) -> List[float]:
    """Duration minus direct-child duration for every span, in order.

    Parent links are only unique within one (pid, tid) stream, so the
    child index is keyed accordingly.
    """
    child_sum: Dict[Tuple[Any, Any, Any], float] = {}
    for span in spans:
        parent = span.get("parent")
        if parent is not None:
            key = (span.get("pid"), span.get("tid"), parent)
            child_sum[key] = child_sum.get(key, 0.0) + span.get("dur", 0.0)
    out: List[float] = []
    for span in spans:
        key = (span.get("pid"), span.get("tid"), span.get("id"))
        self_time = span.get("dur", 0.0) - child_sum.get(key, 0.0)
        out.append(max(self_time, 0.0))
    return out


def summarize(spans: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Aggregate spans into per-name stats and per-layer time shares.

    The *layer* is the first dot-component of the span name
    (``collapse.path_table`` → ``collapse``); shares are of total self
    time, so they sum to ~1.0 across layers regardless of nesting.
    """
    selfs = _self_times(spans)
    by_name: Dict[str, Dict[str, float]] = {}
    by_layer: Dict[str, float] = {}
    total_self = 0.0
    root_total = 0.0
    for span, self_time in zip(spans, selfs):
        name = span["name"]
        dur = span.get("dur", 0.0)
        stats = by_name.setdefault(
            name, {"count": 0, "total": 0.0, "self": 0.0, "max": 0.0})
        stats["count"] += 1
        stats["total"] += dur
        stats["self"] += self_time
        if dur > stats["max"]:
            stats["max"] = dur
        layer = name.split(".", 1)[0]
        by_layer[layer] = by_layer.get(layer, 0.0) + self_time
        total_self += self_time
        if span.get("parent") is None:
            root_total += dur

    layers = {
        layer: {"self": seconds,
                "share": seconds / total_self if total_self else 0.0}
        for layer, seconds in sorted(by_layer.items(),
                                     key=lambda kv: -kv[1])
    }
    names = {
        name: {**stats, "mean": stats["total"] / stats["count"]}
        for name, stats in sorted(by_name.items(),
                                  key=lambda kv: -kv[1]["total"])
    }
    return {
        "spans": len(spans),
        "root_seconds": root_total,
        "self_seconds": total_self,
        "layers": layers,
        "names": names,
    }


def top_spans(spans: List[Dict[str, Any]],
              count: int = 20) -> List[Dict[str, Any]]:
    """The *count* individually longest spans, longest first."""
    ranked = sorted(spans, key=lambda s: -s.get("dur", 0.0))
    return ranked[:count]


# ------------------------------------------------------------ formatting
def format_summary(summary: Dict[str, Any],
                   *, limit: Optional[int] = 15,
                   metrics: Optional[Mapping[str, Mapping[str, Any]]] = None
                   ) -> str:
    """The ``repro trace summary`` text; ``metrics`` (a registry snapshot)
    adds every counter by name — work done and work skipped, which spans
    cannot show."""
    lines = [
        f"spans: {summary['spans']}   "
        f"root time: {summary['root_seconds']:.3f}s   "
        f"self time: {summary['self_seconds']:.3f}s",
        "",
        "layer shares (self time):",
    ]
    for layer, doc in summary["layers"].items():
        bar = "#" * int(round(doc["share"] * 40))
        lines.append(f"  {layer:<12} {doc['share']*100:6.1f}%  "
                     f"{doc['self']:9.3f}s  {bar}")
    lines.append("")
    lines.append(f"{'span':<28} {'count':>7} {'total':>9} "
                 f"{'mean':>9} {'max':>9}")
    names = list(summary["names"].items())
    if limit is not None:
        names = names[:limit]
    for name, stats in names:
        lines.append(
            f"{name:<28} {stats['count']:>7d} {stats['total']:>8.3f}s "
            f"{stats['mean']*1e3:>7.2f}ms {stats['max']*1e3:>7.2f}ms")
    counters = {name: doc["value"] for name, doc in (metrics or {}).items()
                if doc.get("type") == "counter"}
    if counters:
        lines.extend(["", "counters:"])
        for name, value in counters.items():
            text = (f"{value:,.0f}" if value == int(value)
                    else f"{value:.6g}")
            lines.append(f"  {name:<36} {text:>14}")
    return "\n".join(lines)


def format_top(spans: List[Dict[str, Any]]) -> str:
    lines = [f"{'dur':>10} {'cpu':>9} {'name':<28} attrs"]
    for span in spans:
        attrs = span.get("attrs", {})
        attr_text = " ".join(f"{k}={v}" for k, v in sorted(attrs.items()))
        lines.append(
            f"{span.get('dur', 0.0)*1e3:>8.2f}ms "
            f"{span.get('cpu', 0.0)*1e3:>7.2f}ms "
            f"{span['name']:<28} {attr_text}")
    return "\n".join(lines)
