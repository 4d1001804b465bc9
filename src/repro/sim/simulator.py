"""The discrete-event simulator: clock, event queue and processes.

Design notes
------------
The kernel is a classic calendar queue built on :mod:`heapq`.  Events are
ordered by ``(time, priority, sequence)``; the monotonically increasing
sequence number makes the ordering total and therefore the whole simulation
deterministic for a fixed set of seeds.  The heap entry *is* the event
handle: a plain list ``[time, priority, seq, callback, args, label]`` whose
first three items are that key, so every comparison the heap makes is a C
list compare that never reaches the callback, and scheduling costs one
allocation.  :meth:`Simulator.cancel` clears the callback slot and the
dispatcher skips a cleared entry, as ns-2's ``Scheduler::cancel`` and ns-3's
``Simulator::Cancel`` do.

Callbacks are plain callables.  Periodic activities (the Kollaps emulation
loop, application request generators, the fluid-engine integrator) are
modelled as :class:`Process` objects which reschedule themselves.
"""

from __future__ import annotations

import itertools
from heapq import heappop, heappush
from typing import Any, Callable, Optional

__all__ = ["Simulator", "Process", "SimError"]

_INF = float("inf")


class SimError(RuntimeError):
    """Raised for misuse of the simulation kernel (e.g. scheduling in the past)."""


class Simulator:
    """Event loop with a simulated clock starting at time 0.0 seconds."""

    def __init__(self) -> None:
        self._queue: list[list] = []
        self._seq = itertools.count()
        #: Current simulated time in seconds.  A plain attribute, because
        #: every callback reads it; only the kernel writes it.
        self.now = 0.0
        self.events_dispatched = 0

    def at(self, time: float, callback: Callable[..., None], *args: Any,
           priority: int = 0, label: str = "") -> list:
        """Schedule ``callback(*args)`` at absolute simulated ``time``.

        Returns the handle, ``[time, priority, seq, callback, args,
        label]`` — the heap entry itself, read-only by convention.

        Passing ``args`` here instead of closing over them lets a hot caller
        schedule a bound method without allocating a closure per event.
        ``label`` is for constant strings only — never format one per event.
        """
        if not self.now <= time < _INF:         # also false for NaN
            raise SimError(
                f"cannot schedule event at {time!r}, now is {self.now:.9f}")
        event = [time, priority, next(self._seq), callback, args, label]
        heappush(self._queue, event)
        return event

    def after(self, delay: float, callback: Callable[..., None], *args: Any,
              priority: int = 0, label: str = "") -> list:
        """Schedule ``callback(*args)`` ``delay`` seconds from now."""
        if not 0.0 <= delay < _INF:             # also false for NaN
            raise SimError(f"delay must be finite and non-negative: {delay!r}")
        event = [self.now + delay, priority, next(self._seq), callback,
                 args, label]
        heappush(self._queue, event)
        return event

    def cancel(self, event: list) -> None:
        """Unschedule ``event`` in O(1): its callback slot is cleared and the
        dispatcher skips it.  Idempotent, and a no-op on an event that
        already fired."""
        event[3] = None

    def run(self, until: Optional[float] = None) -> float:
        """Dispatch events in order until the queue drains or ``until``.

        When ``until`` is given the clock is advanced to exactly ``until``
        even if the last event fires earlier, so back-to-back ``run`` calls
        compose naturally.  Returns the final simulated time.
        """
        queue = self._queue
        horizon = _INF if until is None else until
        while queue and queue[0][0] <= horizon:
            time, _priority, _seq, callback, args, _label = heappop(queue)
            if callback is None:                # cancelled
                continue
            self.now = time
            self.events_dispatched += 1
            callback(*args)
        if until is not None and until > self.now:
            self.now = until
        return self.now

    def step(self) -> bool:
        """Dispatch a single event.  Returns False when the queue is empty."""
        queue = self._queue
        while queue:
            time, _priority, _seq, callback, args, _label = heappop(queue)
            if callback is not None:            # else cancelled: next
                self.now = time
                self.events_dispatched += 1
                callback(*args)
                return True
        return False

    def pending(self) -> int:
        """Number of not-yet-cancelled events still queued."""
        return sum(1 for event in self._queue if event[3] is not None)


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
        self._event: Optional[list] = None
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
        if result is False or self._stopped:
            self._stopped = True
            return
        self._event = self.sim.after(self.period, self._run,
                                     priority=self._priority, label=self.name)

    def stop(self) -> None:
        """Stop the process; any queued tick is cancelled."""
        self._stopped = True
        if self._event is not None:
            self.sim.cancel(self._event)

    @property
    def next_tick(self) -> float:
        """When the queued tick fires; infinity once the process stopped."""
        event = self._event
        if self._stopped or event is None or event[3] is None:
            return _INF
        return event[0]
