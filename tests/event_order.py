"""The simulator's determinism contract, observed from the outside.

Events dispatch in ``(time, priority, seq)`` order and ``seq`` is handed
out in scheduling order, so the stream of dispatched triples fingerprints
everything the kernel and the code above it did: one event scheduled
earlier, later or in another order anywhere in the run changes every
``seq`` after it.  :func:`kv_event_order` runs the Figure-4 memcached point
— the mesh and clients behind ``bench``'s ``kv_packet`` workload — and
digests that stream; ``tests/golden/kv_event_order.json`` pins the result
and ``BENCH_engine.json`` carries it as ``event_order_checksum``.
The same point driven on a full-state comparator (``backend="baremetal"``,
``"mininet"`` or ``"maxinet"``) is pinned by
``tests/golden/full_state_event_order.json``.
"""

import hashlib
from contextlib import contextmanager

from repro.experiments.fig4 import point_scenario
from repro.scenario import resolve_backend
from repro.sim import Simulator

SEED = 1
DURATION = 0.3


@contextmanager
def recorded_dispatch(record):
    """Call ``record(time, priority, seq)`` as each event is dispatched.

    Scheduling is intercepted at the two public entry points, so nothing
    here depends on how the kernel stores or orders its queue.
    """
    originals = {name: getattr(Simulator, name) for name in ("at", "after")}

    def recording(original):
        def schedule(self, when, callback, *args, **options):
            # ``after`` may be built on ``at``: wrap a callback only once.
            if getattr(callback, "recorded", False):
                return original(self, when, callback, *args, **options)

            def fire(*arguments):
                record(event[0], event[1], event[2])
                callback(*arguments)

            fire.recorded = True
            event = original(self, when, fire, *args, **options)
            return event
        return schedule

    for name, original in originals.items():
        setattr(Simulator, name, recording(original))
    try:
        yield
    finally:
        for name, original in originals.items():
            setattr(Simulator, name, original)


def kv_event_order(seed=SEED, duration=DURATION, backend="kollaps"):
    """(events dispatched, blake2b of their ``(time, priority, seq)``)."""
    digest = hashlib.blake2b(digest_size=16)
    dispatched = 0

    def record(time, priority, seq):
        nonlocal dispatched
        dispatched += 1
        digest.update(f"{time!r},{priority},{seq}\n".encode())

    with recorded_dispatch(record):
        compiled = point_scenario(hosts=4, connections=10, duration=duration,
                                  seed=seed).compile()
        runner = resolve_backend(backend)
        system = runner.prepare(compiled)
        runner.start_workloads()
        runner.advance(duration)
        runner.teardown()
    assert dispatched == system.sim.events_dispatched
    return dispatched, digest.hexdigest()
