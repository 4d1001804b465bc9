"""repro.telemetry — zero-dependency tracing and metrics.

The observability layer of the reproduction.  Three pieces:

* **Spans** (:mod:`.spans`): ``with span("collapse.path_table",
  services=n): ...`` records a named, attributed, nested region with
  wall + CPU time.  A process-local :class:`.Tracer` keeps finished
  spans in memory and, when tracing into a directory, appends each to
  ``trace-<pid>.jsonl`` — multiple campaign worker processes share one
  directory safely.
* **Metrics** (:mod:`.metrics`): counters and fixed-bucket
  histograms in a :class:`.MetricsRegistry` whose snapshots are
  deterministic plain dicts — picklable, mergeable and written beside
  the trace as ``metrics-<pid>.json``.
* **Export** (:mod:`.export`): trace loading, Chrome ``trace_event``
  conversion for about:tracing / Perfetto, and the per-layer time-share
  summaries behind ``repro trace summary``.

Tracing is **off by default** and the guard is one branch: ``span()``
returns a shared no-op object unless :func:`enable` has run.  Setting
``REPRO_TRACE=<dir>`` in the environment enables tracing at import time,
which is how campaign worker processes (fork *or* spawn) inherit the
parent's ``--trace`` flag.
"""

from __future__ import annotations

import os
from typing import Any, Optional

from repro._lazy import lazy_exports
from .spans import NULL_SPAN, NullSpan, Span, Stopwatch, Tracer, clock
from .metrics import Counter, DEFAULT_BUCKETS, Histogram, MetricsRegistry

# The trace readers load on first use: a run that traces nothing does not
# pay for them.
_LAZY = {
    "export": ("format_summary", "format_top", "load_metrics", "load_trace",
               "summarize", "to_chrome", "top_spans"),
}
__getattr__, __dir__ = lazy_exports(globals(), _LAZY)

__all__ = [
    "span", "enable", "disable", "enabled", "tracer", "flush",
    "Span", "NullSpan", "Tracer", "Stopwatch", "clock",
    "Counter", "Histogram", "MetricsRegistry", "DEFAULT_BUCKETS",
    "metrics",
    "load_trace", "load_metrics", "to_chrome", "summarize", "top_spans",
    "format_summary", "format_top",
    "TRACE_ENV_VAR",
]

#: Environment variable that switches tracing on for this process and
#: every child: ``REPRO_TRACE=<dir>`` traces into files under <dir>,
#: ``REPRO_TRACE=1`` (or any non-path truthy value) traces in memory.
TRACE_ENV_VAR = "REPRO_TRACE"

#: The process-global metrics registry.  Instrumented modules hang their
#: counters off this; ``load_metrics`` merges the per-process snapshots
#: of a traced campaign into a fresh MetricsRegistry.
metrics = MetricsRegistry()

_enabled = False
_tracer: Optional[Tracer] = None


def enabled() -> bool:
    """The one branch hot paths check before touching telemetry."""
    return _enabled


def tracer() -> Optional[Tracer]:
    """The active tracer, or None while disabled."""
    return _tracer


def enable(directory: Optional[str] = None) -> Tracer:
    """Turn tracing on (idempotent; a new directory replaces the sink).

    With *directory*, spans stream to ``<directory>/trace-<pid>.jsonl``
    and ``REPRO_TRACE`` is exported so worker subprocesses trace into
    the same place; without, spans stay in memory only.
    """
    global _enabled, _tracer
    if _tracer is not None and _tracer.directory == (
            None if directory is None else str(directory)):
        _enabled = True
        return _tracer
    if _tracer is not None:
        _tracer.close()
    _tracer = Tracer(directory)
    _enabled = True
    if directory is not None:
        os.environ[TRACE_ENV_VAR] = str(directory)
    return _tracer


def disable() -> None:
    global _enabled, _tracer
    _enabled = False
    if _tracer is not None:
        _tracer.close()
    _tracer = None
    os.environ.pop(TRACE_ENV_VAR, None)


def flush() -> None:
    """Push buffered spans to disk and leave the registry's counters
    beside them, for ``repro trace summary`` to list."""
    if _tracer is not None:
        _tracer.flush()
        if _tracer.directory is not None:
            from .export import write_metrics
            write_metrics(_tracer.directory, metrics.snapshot())


def span(name: str, **attrs: Any):
    """Open a span — or hand back the shared no-op when tracing is off.

    Usable as a context manager::

        with telemetry.span("backend.advance", backend="fluid") as sp:
            ...
            sp.set(steps=n)
    """
    if not _enabled:
        return NULL_SPAN
    return _tracer.start(name, attrs)


def _env_autoenable() -> None:
    value = os.environ.get(TRACE_ENV_VAR, "").strip()
    if not value or value.lower() in ("0", "false", "no", "off"):
        return
    if value.lower() in ("1", "true", "yes", "on", "mem", "memory"):
        enable(None)
    else:
        enable(value)


_env_autoenable()
