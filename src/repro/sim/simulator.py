"""The discrete-event simulator: clock, event queue and processes.

Design notes
------------
The kernel is a classic calendar queue built on :mod:`heapq`.  Events are
ordered by ``(time, priority, sequence)``; the monotonically increasing
sequence number makes the ordering total and therefore the whole simulation
deterministic for a fixed set of seeds.  That key is stored on the heap as a
plain tuple beside the event, so every comparison the heap makes is a C
tuple compare.

Callbacks are plain callables.  Periodic activities (the Kollaps emulation
loop, application request generators, the fluid-engine integrator) are
modelled as :class:`Process` objects which reschedule themselves.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Optional, Tuple

__all__ = ["Simulator", "Event", "Process", "SimError"]

_INF = float("inf")


class SimError(RuntimeError):
    """Raised for misuse of the simulation kernel (e.g. scheduling in the past)."""


class Event:
    """A scheduled callback: the handle :meth:`Simulator.at` returns.

    The queue orders events by the ``(time, priority, seq)`` key it stores
    beside each one; the event itself is never compared.
    """

    __slots__ = ("time", "priority", "seq", "callback", "args", "cancelled",
                 "label")

    def __init__(self, time: float, priority: int, seq: int,
                 callback: Callable[..., None], args: Tuple[Any, ...] = (),
                 label: str = "") -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.label = label

    def cancel(self) -> None:
        """Mark the event so the dispatcher skips it (O(1) lazy deletion)."""
        self.cancelled = True

    def __repr__(self) -> str:
        return (f"Event(time={self.time!r}, priority={self.priority!r}, "
                f"seq={self.seq!r}, label={self.label!r}, "
                f"cancelled={self.cancelled!r})")


class Simulator:
    """Event loop with a simulated clock starting at time 0.0 seconds."""

    def __init__(self) -> None:
        # Heap of (time, priority, seq, event): seq is unique, so tuple
        # comparison never reaches the event.
        self._queue: list[Tuple[float, int, int, Event]] = []
        self._seq = itertools.count()
        self._now = 0.0
        self.events_dispatched = 0

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def at(self, time: float, callback: Callable[..., None], *args: Any,
           priority: int = 0, label: str = "") -> Event:
        """Schedule ``callback(*args)`` at absolute simulated ``time``.

        Passing ``args`` here instead of closing over them lets a hot caller
        schedule a bound method without allocating a closure per event.
        ``label`` is for constant strings only — never format one per event.
        """
        if not self._now <= time < _INF:        # also false for NaN
            raise SimError(
                f"cannot schedule event at {time!r}, now is {self._now:.9f}")
        return self._push(time, priority, callback, args, label)

    def after(self, delay: float, callback: Callable[..., None], *args: Any,
              priority: int = 0, label: str = "") -> Event:
        """Schedule ``callback(*args)`` ``delay`` seconds from now."""
        if not 0.0 <= delay < _INF:             # also false for NaN
            raise SimError(f"delay must be finite and non-negative: {delay!r}")
        time = self._now + delay
        return self._push(time, priority, callback, args, label)

    def _push(self, time: float, priority: int,
              callback: Callable[..., None], args: Tuple[Any, ...],
              label: str) -> Event:
        seq = next(self._seq)
        event = Event(time, priority, seq, callback, args, label)
        heapq.heappush(self._queue, (time, priority, seq, event))
        return event

    def run(self, until: Optional[float] = None) -> float:
        """Dispatch events in order until the queue drains or ``until``.

        When ``until`` is given the clock is advanced to exactly ``until``
        even if the last event fires earlier, so back-to-back ``run`` calls
        compose naturally.  Returns the final simulated time.
        """
        queue = self._queue
        pop = heapq.heappop
        horizon = _INF if until is None else until
        while queue and queue[0][0] <= horizon:
            time, _priority, _seq, event = pop(queue)
            if event.cancelled:
                continue
            self._now = time
            self.events_dispatched += 1
            event.callback(*event.args)
        if until is not None and until > self._now:
            self._now = until
        return self._now

    def step(self) -> bool:
        """Dispatch a single event.  Returns False when the queue is empty."""
        while self._queue:
            time, _priority, _seq, event = heapq.heappop(self._queue)
            if event.cancelled:
                continue
            self._now = time
            self.events_dispatched += 1
            event.callback(*event.args)
            return True
        return False

    def pending(self) -> int:
        """Number of not-yet-cancelled events still queued."""
        return sum(1 for entry in self._queue if not entry[3].cancelled)


class Process:
    """A periodic activity: calls :meth:`tick` every ``period`` seconds.

    Subclasses override :meth:`tick`; alternatively a callable can be passed
    directly.  The process stops when :meth:`stop` is called or when
    :meth:`tick` returns ``False``.
    """

    def __init__(self, sim: Simulator, period: float,
                 tick: Optional[Callable[[], Any]] = None, *,
                 name: str = "", start_after: float = 0.0,
                 priority: int = 0) -> None:
        if period <= 0:
            raise SimError(f"process period must be positive, got {period}")
        self.sim = sim
        self.period = period
        self.name = name or type(self).__name__
        self._tick_fn = tick
        self._priority = priority
        self._stopped = False
        self._event: Optional[Event] = None
        self.ticks = 0
        self._event = sim.after(start_after, self._run, priority=priority,
                                label=self.name)

    def tick(self) -> Any:
        """One iteration of the activity; override or pass ``tick=`` at init."""
        if self._tick_fn is None:
            raise NotImplementedError
        return self._tick_fn()

    def _run(self) -> None:
        if self._stopped:
            return
        result = self.tick()
        self.ticks += 1
        if result is False or self._stopped:
            self._stopped = True
            return
        self._event = self.sim.after(self.period, self._run,
                                     priority=self._priority, label=self.name)

    def stop(self) -> None:
        """Stop the process; any queued tick is cancelled."""
        self._stopped = True
        if self._event is not None:
            self._event.cancel()

    @property
    def stopped(self) -> bool:
        return self._stopped
