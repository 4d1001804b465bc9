"""Spans: the tracing half of the telemetry subsystem.

A *span* is one named, timed region of work — ``collapse.path_table``,
``backend.advance``, ``campaign.point`` — with wall and CPU duration,
arbitrary key-value attributes, and a parent link that makes concurrent
spans form per-thread trees.  The process-local :class:`Tracer` collects
finished spans in memory and (when given a directory) appends each one as
a JSON line to ``trace-<pid>.jsonl``, so any number of worker processes
can trace into the same directory without coordination; the
:mod:`repro.telemetry.export` readers reassemble the forest.

Everything here is built for a *disabled-by-default* hot path: when
tracing is off, :func:`repro.telemetry.span` returns a shared no-op
context manager behind a single boolean branch — no allocation, no clock
read, no lock (the <2 % overhead budget of the engine benchmarks).
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import Any, Callable, Dict, List, Optional

__all__ = ["Span", "Tracer", "NullSpan", "NULL_SPAN", "clock", "Stopwatch"]

#: The one timing authority of the telemetry layer: a monotonic
#: high-resolution clock.  Every duration in the repository should come
#: from here (never ``time.time()`` — wall-clock jumps skew durations).
clock: Callable[[], float] = time.perf_counter


class Stopwatch:
    """A tiny monotonic stopwatch for ad-hoc duration measurements.

    ``with Stopwatch() as watch: ...; watch.elapsed`` — the helper the
    campaign executor and the ablation experiments time themselves with,
    so no caller ever reaches for a wall clock again.
    """

    __slots__ = ("started", "elapsed")

    def __init__(self) -> None:
        self.started = clock()
        self.elapsed = 0.0

    def __enter__(self) -> "Stopwatch":
        self.started = clock()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    def stop(self) -> float:
        self.elapsed = clock() - self.started
        return self.elapsed


class Span:
    """One in-flight traced region; finished spans become plain dicts."""

    __slots__ = ("tracer", "name", "attrs", "span_id", "parent_id",
                 "start", "start_cpu", "_finished")

    def __init__(self, tracer: "Tracer", name: str, attrs: Dict[str, Any],
                 span_id: int, parent_id: Optional[int]) -> None:
        self.tracer = tracer
        self.name = name
        self.attrs = attrs
        self.span_id = span_id
        self.parent_id = parent_id
        self.start = clock()
        self.start_cpu = time.process_time()
        self._finished = False

    def set(self, **attrs: Any) -> "Span":
        """Attach (or overwrite) attributes while the span is open."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, _exc, _tb) -> None:
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        self.finish()

    def finish(self) -> None:
        if self._finished:
            return
        self._finished = True
        self.tracer._finish(self)


class NullSpan:
    """The shared no-op span: what :func:`span` hands out while disabled.

    Supports the whole :class:`Span` surface (``with``, :meth:`set`,
    :meth:`finish`) so instrumentation sites never need a second branch.
    """

    __slots__ = ()

    def set(self, **_attrs: Any) -> "NullSpan":
        return self

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, *_exc_info: object) -> None:
        return None

    def finish(self) -> None:
        return None


NULL_SPAN = NullSpan()


class Tracer:
    """Process-local span collector with an optional JSONL sink.

    ``directory=None`` keeps spans in memory only (tests, benchmarks);
    with a directory, every finished span is appended to
    ``<directory>/trace-<pid>.jsonl``.  The file handle is re-opened
    after a ``fork`` (the pid is part of the name), so a process pool
    tracing into a shared directory never interleaves lines.
    """

    def __init__(self, directory: Optional[str] = None, *,
                 keep: int = 200_000) -> None:
        self.directory = None if directory is None else str(directory)
        self.keep = keep
        self.spans: List[Dict[str, Any]] = []
        self.dropped = 0
        self._lock = threading.Lock()
        self._next_id = 1
        self._stack = threading.local()
        self._handle = None
        self._handle_pid: Optional[int] = None
        if self.directory is not None:
            os.makedirs(self.directory, exist_ok=True)

    # ------------------------------------------------------------ span admin
    def _thread_stack(self) -> List[int]:
        stack = getattr(self._stack, "frames", None)
        if stack is None:
            stack = self._stack.frames = []
        return stack

    def start(self, name: str, attrs: Dict[str, Any]) -> Span:
        stack = self._thread_stack()
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        span = Span(self, name, attrs, span_id,
                    stack[-1] if stack else None)
        stack.append(span_id)
        return span

    def _finish(self, span: Span) -> None:
        stack = self._thread_stack()
        # Pop back *through* the span: an inner span leaked past an outer
        # finish (a generator abandoned mid-flight, say) must not corrupt
        # the parentage of every later span on this thread.
        if span.span_id in stack:
            del stack[stack.index(span.span_id):]
        record = {
            "name": span.name,
            "id": span.span_id,
            "parent": span.parent_id,
            "start": round(span.start, 9),
            "dur": round(clock() - span.start, 9),
            "cpu": round(time.process_time() - span.start_cpu, 9),
            "pid": os.getpid(),
            "tid": threading.get_ident(),
        }
        if span.attrs:
            record["attrs"] = span.attrs
        with self._lock:
            if len(self.spans) < self.keep:
                self.spans.append(record)
            else:
                self.dropped += 1
            self._write(record)

    # ------------------------------------------------------------- the sink
    def path(self) -> Optional[str]:
        """This process's trace file, or None for a memory-only tracer."""
        if self.directory is None:
            return None
        return os.path.join(self.directory, f"trace-{os.getpid()}.jsonl")

    def _write(self, record: Dict[str, Any]) -> None:
        if self.directory is None:
            return
        pid = os.getpid()
        if self._handle is None or self._handle_pid != pid:
            # First write, or we are a fork child holding the parent's
            # handle: (re)open our own pid-named file.
            if self._handle is not None:
                try:
                    self._handle.close()
                except OSError:
                    pass
            self._handle = open(self.path(), "a", encoding="utf-8")
            self._handle_pid = pid
        json.dump(record, self._handle, sort_keys=True, default=repr)
        self._handle.write("\n")

    def flush(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.flush()

    def close(self) -> None:
        with self._lock:
            if self._handle is not None and self._handle_pid == os.getpid():
                try:
                    self._handle.flush()
                    self._handle.close()
                except OSError:
                    pass
            self._handle = None
            self._handle_pid = None
