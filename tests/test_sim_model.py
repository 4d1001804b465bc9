"""The event kernel against a sorted-list reference, as a model.

One generated program — ``at`` / ``after`` / ``cancel`` / ``run(until)``
/ ``step()`` from outside, more scheduling and cancelling from inside
callbacks, equal times and equal priorities on purpose — is interpreted on
:class:`repro.sim.Simulator` and on :class:`SortedListKernel`, which keeps
its queue as a sorted list and nothing else.  Everything a caller can see
must agree: what fired and in which order, the clock, ``pending()`` and
``events_dispatched`` after every step, and what each handle — the list
``[time, priority, seq, callback, args, label]`` — reports, also after it
fired.
"""

import bisect

from hypothesis import given, settings, strategies as st

from repro.sim import Simulator

_INF = float("inf")


class SortedListKernel:
    """The reference: a list kept sorted by ``(time, priority, seq)``."""

    def __init__(self):
        self.now = 0.0
        self.events_dispatched = 0
        self._seq = 0
        self._entries = []

    def at(self, time, callback, *args, priority=0):
        handle = [time, priority, self._seq, callback, args, ""]
        self._seq += 1
        # seq is unique: the comparison never reaches the handle.
        bisect.insort(self._entries, (time, priority, handle[2], handle))
        return handle

    def cancel(self, handle):
        handle[3] = None

    def after(self, delay, callback, *args, priority=0):
        return self.at(self.now + delay, callback, *args, priority=priority)

    def _dispatch_one(self, horizon):
        while self._entries and self._entries[0][0] <= horizon:
            time, _priority, _seq, handle = self._entries.pop(0)
            if handle[3] is not None:
                self.now = time
                self.events_dispatched += 1
                handle[3](*handle[4])
                return True
        return False

    def run(self, until=None):
        horizon = _INF if until is None else until
        while self._dispatch_one(horizon):
            pass
        if until is not None and until > self.now:
            self.now = until
        return self.now

    def step(self):
        return self._dispatch_one(_INF)

    def pending(self):
        return sum(entry[3][3] is not None for entry in self._entries)


# Few distinct values, so equal times and equal priorities are the rule.
_SPANS = st.sampled_from([0.0, 0.25, 0.5, 1.0])
_PRIORITIES = st.sampled_from([-1, 0, 0, 1])
_PICK = st.integers(min_value=0, max_value=40)

_INNER = st.one_of(
    st.tuples(st.just("at"), _SPANS, _PRIORITIES),
    st.tuples(st.just("after"), _SPANS, _PRIORITIES),
    st.tuples(st.just("cancel"), _PICK),
)
_OUTER = st.one_of(
    st.tuples(st.just("at"), _SPANS, _PRIORITIES,
              st.lists(_INNER, max_size=3)),
    st.tuples(st.just("after"), _SPANS, _PRIORITIES,
              st.lists(_INNER, max_size=3)),
    st.tuples(st.just("cancel"), _PICK),
    st.tuples(st.just("run"), _SPANS),
    st.tuples(st.just("step")),
)


def interpret(kernel, program):
    """Run ``program`` on ``kernel``; return everything observable."""
    handles, fired, trace = [], [], []

    def schedule(verb, span, priority, inner=()):
        index = len(handles)
        if verb == "at":
            handle = kernel.at(kernel.now + span, fire, index, inner,
                               priority=priority)
        else:
            handle = kernel.after(span, fire, index, inner,
                                  priority=priority)
        handles.append(handle)

    def cancel(pick):
        if handles:                 # fired, queued or already cancelled
            kernel.cancel(handles[pick % len(handles)])

    def fire(index, inner):
        handle = handles[index]
        fired.append((kernel.now, *handle[:3]))
        for verb, *rest in inner:
            if verb == "cancel":
                cancel(*rest)
            else:
                schedule(verb, *rest)

    for verb, *rest in program + [("run", None)]:
        if verb == "cancel":
            cancel(*rest)
        elif verb == "run":
            span = rest[0]
            kernel.run(None if span is None else kernel.now + span)
        elif verb == "step":
            trace.append(kernel.step())
        else:
            schedule(verb, *rest)
        trace.append((kernel.now, kernel.pending(),
                      kernel.events_dispatched))
    reports = [(*handle[:3], handle[3] is None) for handle in handles]
    return fired, trace, reports


@settings(max_examples=300, deadline=None)
@given(st.lists(_OUTER, max_size=40))
def test_kernel_agrees_with_the_sorted_list_reference(program):
    fired, trace, reports = interpret(Simulator(), program)
    assert (fired, trace, reports) == interpret(SortedListKernel(), program)
    # And the order itself, not only agreement: the clock never goes back,
    # an event fires at its own time, once, and the queue ends empty.
    times = [now for now, *_ in fired]
    assert times == sorted(times)
    assert all(now == time for now, time, *_ in fired)
    assert len({seq for *_, seq in fired}) == len(fired)
    assert trace[-1][1:] == (0, len(fired))


def test_handle_reports_its_key_after_it_fired_and_after_cancel():
    sim = Simulator()
    seen = []
    first = sim.at(1.0, seen.append, "a", priority=2, label="first")
    second = sim.after(2.0, seen.append, "b")
    sim.run()
    assert seen == ["a", "b"]
    assert (first[0], first[1], first[2], first[5], first[4],
            first[3] is None) == (1.0, 2, 0, "first", ("a",), False)
    sim.cancel(first)                   # after dispatch: nothing to undo
    assert first[3] is None and second[3] is not None
    assert first[:3] == [1.0, 2, 0]
    assert sim.pending() == 0 and sim.events_dispatched == 2


def test_cancel_is_idempotent_and_a_no_op_on_a_fired_event():
    sim = Simulator()
    seen = []
    fired = sim.at(1.0, seen.append, "fired")
    doomed = sim.at(2.0, seen.append, "doomed")
    sim.at(3.0, seen.append, "kept")
    sim.run(until=1.5)
    sim.cancel(fired)
    sim.cancel(doomed)
    sim.cancel(doomed)
    assert sim.pending() == 1 and sim.events_dispatched == 1
    sim.run()
    assert seen == ["fired", "kept"]
    assert sim.events_dispatched == 2 and sim.now == 3.0
