"""``Series``: a ``(time, value)`` series in two packed float columns.

The window mean (:meth:`Series.mean`) replaced two formulas — the fluid
engine's bisection over its columns and ``Metrics``' filter over stored
pairs — and must agree with both to the bit on time-sorted columns.
"""

import math
import random
from array import array
from bisect import bisect_left
from itertools import zip_longest

import pytest

from repro.netstack.fluid.engine import FluidEngine
from repro.scenario import flow
from repro.scenario.results import Metrics, ScenarioRun
from repro.scenario.topologies import point_to_point
from repro.sim import Series

PAIRS = ((0.0, 1.5), (0.01, 2.5), (0.02, 4.0))


class TestShape:
    def test_reads_as_its_pairs(self):
        series = Series(PAIRS)
        assert len(series) == 3
        assert list(series) == list(PAIRS)
        assert series[1] == (0.01, 2.5)
        assert series[-1] == (0.02, 4.0)
        assert not Series() and series

    def test_columns_are_packed_floats(self):
        series = Series([(1, 2)])
        assert series.times == array("d", [1.0])
        assert series.values == array("d", [2.0])
        assert series.times.typecode == series.values.typecode == "d"

    def test_compares_with_series_and_with_pairs(self):
        series = Series(PAIRS)
        assert series == Series(PAIRS)
        assert series == PAIRS
        assert series == [list(pair) for pair in PAIRS]
        assert series != PAIRS[:2]
        assert series != Series(PAIRS[:2])
        assert series != 3
        assert Series() == ()

    def test_nan_is_unequal_to_itself(self):
        # The one way a series compares unlike a tuple of pairs: arrays
        # compare floats by value.
        nan = float("nan")
        assert ((0.0, nan),) == ((0.0, nan),)
        assert Series([(0.0, nan)]) != Series([(0.0, nan)])

    def test_of_keeps_the_columns(self):
        times, values = array("d", [0.0, 1.0]), array("d", [5.0, 6.0])
        series = Series.of(times, values)
        assert series.times is times and series.values is values
        with pytest.raises(ValueError, match="differ in length"):
            Series.of(times, array("d", [1.0]))

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(Series(PAIRS))


def _bits(series):
    return series.times.tobytes(), series.values.tobytes()


class TestPacking:
    """A store record's series: base64 of little-endian float64 columns."""

    def test_a_known_vector_pins_the_byte_order(self):
        assert Series([(1.0, 2.0)]).packed() == {"times": "AAAAAAAA8D8=",
                                                 "values": "AAAAAAAAAEA="}

    def test_random_doubles_round_trip_to_the_bit(self):
        # Any 64-bit pattern, NaN payloads and subnormals included.
        rng = random.Random(11)
        times = array("Q", (rng.getrandbits(64) for _ in range(500)))
        values = array("Q", (rng.getrandbits(64) for _ in range(500)))
        series = Series.of(array("d", times.tobytes()),
                           array("d", values.tobytes()))
        assert _bits(Series.unpacked(series.packed())) == _bits(series)

    def test_special_values_round_trip_to_the_bit(self):
        specials = [-0.0, 0.0, math.inf, -math.inf, math.nan, -math.nan,
                    5e-324, -5e-324, 2.2250738585072e-308,
                    2.2250738585072014e-308, 1.7976931348623157e308]
        series = Series(zip(specials, reversed(specials)))
        again = Series.unpacked(series.packed())
        assert _bits(again) == _bits(series)
        assert math.copysign(1.0, again.times[0]) == -1.0
        assert math.isnan(again.times[4]) and math.isinf(again.values[-3])

    def test_an_empty_series_packs_to_empty_columns(self):
        assert Series().packed() == {"times": "", "values": ""}
        again = Series.unpacked(Series().packed())
        assert len(again) == 0 and again == ()

    def test_metrics_store_packed_and_load_either_form(self):
        metrics = Metrics(key="f", kind="flow", throughput=PAIRS,
                          latency=[(0.5, -0.0)])
        record = metrics.to_dict()
        assert record["throughput"] == Series(PAIRS).packed()
        packed = Metrics.from_dict(record)
        pairs = Metrics.from_dict(dict(
            record, throughput=[list(pair) for pair in PAIRS],
            latency=[[0.5, -0.0]]))
        for loaded in (packed, pairs):
            assert _bits(loaded.throughput) == _bits(metrics.throughput)
            assert _bits(loaded.latency) == _bits(metrics.latency)
        assert Metrics.from_dict({"key": "k"}).throughput == ()


def _engine_mean(times, rates, start, end):
    """``FluidEngine.mean_throughput`` before ``Series.mean``."""
    first = bisect_left(times, start)
    last = bisect_left(times, end)
    if last <= first:
        return 0.0
    return sum(rates[first:last]) / (last - first)


def _metrics_mean(pairs, start, end):
    """``Metrics.mean_throughput`` before ``Series.mean``."""
    samples = [rate for time, rate in pairs if start <= time < end]
    return sum(samples) / len(samples) if samples else 0.0


def _generated(rng):
    """A step grid as the simulator accumulates it, a rate column that
    may end early, and windows whose edges often sit on sample times."""
    steps = rng.randrange(0, 60)
    dt = rng.choice((0.01, 0.005, 0.1))
    times, now = [], rng.choice((0.0, 0.3))
    for _ in range(steps):
        times.append(now)
        now += dt
    rates = [rng.choice((0.0, rng.uniform(0, 1e9), rng.random() * 1e-3,
                         12345678.9 * rng.random()))
             for _ in range(rng.randrange(0, steps + 1))]
    edges = times + [-1.0, 0.0, now, now + dt, math.inf,
                     rng.uniform(-0.1, now + 0.1)]
    windows = [(rng.choice(edges), rng.choice(edges)) for _ in range(12)]
    windows += [(0.0, math.inf)]
    return times, rates, windows


def test_window_mean_matches_both_old_formulas():
    rng = random.Random(42)
    checked = 0
    for _ in range(300):
        times, rates, windows = _generated(rng)
        padded = rates + [0.0] * (len(times) - len(rates))
        series = Series.of(array("d", times), array("d", padded))
        metrics = Metrics(key="k", kind="flow",
                          throughput=zip_longest(times, rates,
                                                 fillvalue=0.0))
        for start, end in windows:
            mean = series.mean(start, end)
            assert mean.hex() == \
                _engine_mean(times, rates, start, end).hex()
            assert mean.hex() == _metrics_mean(
                zip_longest(times, rates, fillvalue=0.0), start, end).hex()
            assert metrics.mean_throughput(start, end).hex() == mean.hex()
            checked += 1
    assert checked > 3000


def test_engine_mean_matches_the_old_formula_over_a_run():
    """A flow that starts late and one whose column ends early, on the
    engine's own grid, with windows on and between its step times."""
    compiled = (point_to_point(20e6, latency=0.002)
                .workload(flow("client", "server", start=0.105, stop=0.3,
                               key="late"),
                          flow("client", "server", stop=0.2, key="early"))
                .deploy(machines=1, seed=5, duration=0.5).compile())
    fluid: FluidEngine = compiled.run(backend="kollaps").engine.fluid
    times = list(fluid._times)
    assert len(fluid._rates["early"]) < len(times)
    edges = times[::7] + [0.0, 0.105, 0.2, 0.2000001, 0.3, math.inf]
    for key in ("late", "early", "never"):
        rates = list(fluid._rates.get(key, ()))
        for start in edges:
            for end in edges:
                assert fluid.mean_throughput(key, start, end).hex() == \
                    _engine_mean(times, rates, start, end).hex()


def test_an_integer_horizon_exports_as_a_float():
    compiled = (point_to_point(20e6)
                .workload(flow("client", "server", key="f"))
                .deploy(machines=1, seed=1, duration=1.0).compile())
    for backend in ("kollaps", "trickle"):
        as_int = compiled.run(until=1, backend=backend)
        as_float = compiled.run(until=1.0, backend=backend)
        assert type(as_int.until) is float
        assert as_int.to_dict() == as_float.to_dict()
        assert repr(as_int.to_dict()) == repr(as_float.to_dict())
        again = ScenarioRun.from_dict(as_int.to_dict()).to_dict()
        assert repr(again) == repr(as_int.to_dict())


def test_the_iperf_goodput_column_is_the_metrics_series():
    from repro.apps.iperf import GOODPUT_FACTOR
    from repro.scenario import iperf
    run = (point_to_point(20e6)
           .workload(iperf("client", "server", duration=0.5, warmup=0.1,
                           key="i"))
           .deploy(machines=1, seed=1, duration=0.5).compile().run())
    goodput = run["i"].series
    assert goodput is run.metric("i").throughput
    wire = run.engine.fluid.series("i")
    assert goodput.times == wire.times
    assert list(goodput.values) == [rate * GOODPUT_FACTOR
                                    for rate in wire.values]
