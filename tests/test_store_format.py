"""Store records keep their bytes: ``ScenarioRun.to_dict`` is a format.

``tests/golden/run_records.json`` holds, under ``"packed"``, the
``to_dict()`` JSON (``sort_keys``) of one tiny run per series-carrying
workload kind, each series packed into base64 float64 columns.  A run
must encode to those bytes, and ``from_dict(to_dict(run))`` must
re-encode to them too: a campaign store rewritten through the results
API stays byte-identical.

Under ``"pairs"`` it keeps the same runs as records were written before
series were packed, each series a list of ``[time, value]`` pairs.  Such
a record must still load, to the very samples of its packed form.

Refresh the packed records (only for a change meant to move a record;
the pair-form ones are history and stay)::

    PYTHONPATH=src:tests python -c "import test_store_format as t; t.write()"
"""

import json
import pathlib

import pytest

from repro.scenario import flow, iperf, ping
from repro.scenario.results import ScenarioRun, Series
from repro.scenario.topologies import point_to_point

GOLDEN = pathlib.Path(__file__).parent / "golden" / "run_records.json"
MBPS = 1e6


def _scenario(workload):
    return (point_to_point(20 * MBPS, latency=0.002)
            .workload(workload)
            .deploy(machines=1, seed=3, duration=0.5)
            .compile())


def _iperf():
    return iperf("client", "server", duration=0.4, warmup=0.1, key="i")


# name -> (compiled scenario factory, backend)
CASES = {
    "flow@kollaps": (lambda: _scenario(flow("client", "server", key="f")),
                     "kollaps"),
    "iperf@kollaps": (lambda: _scenario(_iperf()), "kollaps"),
    "ping@kollaps": (lambda: _scenario(ping("client", "server", count=5,
                                            interval=0.05, key="p")),
                     "kollaps"),
    "iperf@trickle": (lambda: _scenario(_iperf()), "trickle"),
    "iperf@baremetal": (lambda: _scenario(_iperf()), "baremetal"),
}


def encode(run: ScenarioRun) -> str:
    return json.dumps(run.to_dict(), sort_keys=True)


def records():
    return {name: encode(factory().run(backend=backend))
            for name, (factory, backend) in CASES.items()}


def write() -> None:
    pinned = json.loads(GOLDEN.read_text())
    pinned["packed"] = records()
    GOLDEN.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())["packed"]


@pytest.fixture(scope="module")
def pair_form():
    return json.loads(GOLDEN.read_text())["pairs"]


@pytest.mark.parametrize("name", sorted(CASES))
def test_a_run_encodes_to_the_pinned_bytes(golden, name):
    factory, backend = CASES[name]
    run = factory().run(backend=backend)
    assert encode(run) == golden[name]
    assert encode(ScenarioRun.from_dict(run.to_dict())) == golden[name]


@pytest.mark.parametrize("name", sorted(CASES))
def test_a_stored_record_reencodes_to_the_same_bytes(golden, name):
    stored = json.loads(golden[name])
    assert encode(ScenarioRun.from_dict(stored)) == golden[name]


@pytest.mark.parametrize("name", sorted(CASES))
def test_a_pair_form_record_loads_to_the_packed_samples(golden, pair_form,
                                                         name):
    old = ScenarioRun.from_dict(json.loads(pair_form[name]))
    new = ScenarioRun.from_dict(json.loads(golden[name]))
    assert old.metrics.keys() == new.metrics.keys()
    for key, metrics in old.metrics.items():
        for series_name in ("throughput", "latency"):
            was = getattr(metrics, series_name)
            now = getattr(new.metrics[key], series_name)
            assert isinstance(was, Series) and was == now
            assert was.times.tobytes() == now.times.tobytes()
            assert was.values.tobytes() == now.values.tobytes()
    # Only the series encoding moved: re-encoded, the old record is the
    # packed one to the byte.
    assert encode(old) == golden[name]
