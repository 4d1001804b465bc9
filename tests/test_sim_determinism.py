"""Simulator determinism per seed, pinned on the packet-mode kv mesh."""

import json
from pathlib import Path

import pytest

from event_order import APP_CASES, DURATION, SEED, app_event_order, \
    kv_event_order

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


APPS = Path(__file__).parent / "golden" / "app_event_order.json"


@pytest.mark.parametrize("case", sorted(APP_CASES))
def test_app_event_order_matches_the_golden(case):
    """wrk2, curl, BFT-SMaRt, Wheat and YCSB dispatch the streams recorded
    before their servers, clients and quorums became one substrate: an
    application that sends, serves or counts a vote at another moment
    lands here."""
    pinned = json.loads(APPS.read_text())["cases"][case]
    assert app_event_order(case) == (pinned["events"], pinned["digest"])


@pytest.mark.parametrize("case", sorted(APP_CASES))
def test_app_event_order_survives_the_scn_round_trip(case):
    """Each application is a ``.scn`` workload: dumped and loaded back,
    its scenario dispatches the same golden stream."""
    pinned = json.loads(APPS.read_text())["cases"][case]
    assert app_event_order(case, through_scn=True) == (pinned["events"],
                                                       pinned["digest"])
