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
``tests/golden/full_state_event_order.json``, and the applications of
§5.3 and §5.6 by ``tests/golden/app_event_order.json``
(:func:`app_event_order`).
"""

import hashlib
from contextlib import contextmanager

from repro.experiments import fig5, fig6, fig9, fig10
from repro.experiments.fig4 import point_scenario
from repro.scenario import dumps_scn, loads_scn, resolve_backend
from repro.sim import simulator

SEED = 1
DURATION = 0.3


@contextmanager
def recorded_dispatch(record):
    """Call ``record(time, priority, seq)`` as each event is dispatched.

    The kernel's own pop is intercepted, where ``Simulator.run`` and
    ``Simulator.step`` take the next entry off the queue, so an event
    counts however it was queued; a cancelled entry (callback cleared)
    is popped and skipped, and is not recorded.
    """
    original = simulator.heappop

    def popping(queue):
        entry = original(queue)
        if entry[3] is not None:
            record(entry[0], entry[1], entry[2])
        return entry

    simulator.heappop = popping
    try:
        yield
    finally:
        simulator.heappop = original


def event_order(builder, backend="kollaps", duration=DURATION):
    """(events dispatched, blake2b of their ``(time, priority, seq)``) of
    ``builder``'s scenario on ``backend``, advanced ``duration`` seconds."""
    digest = hashlib.blake2b(digest_size=16)
    dispatched = 0

    def record(time, priority, seq):
        nonlocal dispatched
        dispatched += 1
        digest.update(f"{time!r},{priority},{seq}\n".encode())

    with recorded_dispatch(record):
        compiled = builder.compile()
        runner = resolve_backend(backend)
        system = runner.prepare(compiled)
        runner.start_workloads()
        runner.advance(duration)
        runner.teardown()
    assert dispatched == system.sim.events_dispatched
    return dispatched, digest.hexdigest()


def kv_event_order(seed=SEED, duration=DURATION, backend="kollaps"):
    """:func:`event_order` of the Figure-4 point behind ``kv_packet``."""
    return event_order(point_scenario(hosts=4, connections=10,
                                      duration=duration, seed=seed),
                       backend, duration)


# The paper's request/response applications, one short point each:
# application -> (builder factory, simulated seconds, backends).
_APPS = {
    "fig5-wrk2": (lambda: fig5.point_scenario(traffic="wrk2", duration=0.5),
                  0.5, ("kollaps", "baremetal")),
    "fig6-curl": (lambda: fig6.point_scenario(clients=4, duration=3.0),
                  3.0, ("kollaps", "baremetal", "mininet")),
    "fig9-bftsmart": (lambda: fig9.point_scenario(
        protocol="bftsmart", operations=10, seed=101),
        10.0, ("kollaps", "baremetal")),
    "fig9-wheat": (lambda: fig9.point_scenario(
        protocol="wheat", operations=10, seed=101),
        10.0, ("kollaps", "baremetal")),
    "fig10-ycsb": (lambda: fig10.point_scenario(
        threads=16, duration=5.0, seed=111),
        5.0, ("kollaps", "baremetal")),
}
# "<application>-<backend>" -> (factory, backend, seconds); pinned by
# ``tests/golden/app_event_order.json``.
APP_CASES = {f"{app}-{backend}": (factory, backend, duration)
             for app, (factory, duration, backends) in _APPS.items()
             for backend in backends}


def app_event_order(case, through_scn=False):
    """:func:`event_order` of one of :data:`APP_CASES`; with
    ``through_scn``, of its builder dumped to ``.scn`` and loaded back."""
    factory, backend, duration = APP_CASES[case]
    builder = factory()
    if through_scn:
        builder = loads_scn(dumps_scn(builder))
    return event_order(builder, backend, duration)
