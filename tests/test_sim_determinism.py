"""Simulator determinism per seed, pinned on the packet-mode kv mesh."""

import json
from pathlib import Path

import pytest

from event_order import DURATION, SEED, kv_event_order

GOLDEN = Path(__file__).parent / "golden" / "kv_event_order.json"


@pytest.fixture(scope="module")
def reference():
    """(events, digest) of one run at the golden's seed."""
    return kv_event_order()


def test_same_seed_dispatches_the_same_event_stream(reference):
    assert kv_event_order() == reference
    assert reference[0] > 10_000    # a real packet-mode run, not a stub


def test_another_seed_dispatches_another_stream(reference):
    assert kv_event_order(seed=SEED + 1)[1] != reference[1]


def test_event_order_matches_the_golden(reference):
    """The stream the parent of the fast packet path dispatched, with each
    metadata publication delivered to all of its peers by one event (the
    golden's ``captured_on``).

    Any kernel or packet-path change that schedules one event earlier,
    later or in another order — or moves a float by one ulp — lands here.
    """
    golden = json.loads(GOLDEN.read_text())
    assert f"duration={DURATION}, seed={SEED}" in golden["scenario"]
    assert reference == (golden["events"], golden["digest"])


FULL_STATE = Path(__file__).parent / "golden" / "full_state_event_order.json"


@pytest.mark.parametrize("backend", ["baremetal", "mininet", "maxinet"])
def test_full_state_event_order_matches_the_golden(backend):
    """The same point on each full-state comparator dispatches the stream
    recorded when the three were still built separately: a switch model
    that costs a packet more, less or at another moment lands here."""
    golden = json.loads(FULL_STATE.read_text())
    assert f"duration={DURATION}, seed={SEED}" in golden["scenario"]
    pinned = golden["backends"][backend]
    assert kv_event_order(backend=backend) == (pinned["events"],
                                               pinned["digest"])
