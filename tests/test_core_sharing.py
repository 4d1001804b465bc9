"""RTT-aware min-max bandwidth sharing — including the Figure 8 schedule."""

import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (FlowDemand, paper_two_step_shares, rtt_aware_max_min,
                        sharing)

MBPS = 1e6
INFINITY = float("inf")
GOLDEN = Path(__file__).parent / "golden" / "fair_share_allocations.json"

# ---------------------------------------------------------------------------
# The §5.4 experiment as pure allocation problems.  Link ids:
#   0-2: C1-3 access (50/50/10), 3-5: C4-6 access (50/50/10),
#   6: B1-B2 (50), 7: B2-B3 (100), 8-13: server access (50 each).
# ---------------------------------------------------------------------------
SECTION54_CAPACITIES = {
    0: 50 * MBPS, 1: 50 * MBPS, 2: 10 * MBPS,
    3: 50 * MBPS, 4: 50 * MBPS, 5: 10 * MBPS,
    6: 50 * MBPS, 7: 100 * MBPS,
    8: 50 * MBPS, 9: 50 * MBPS, 10: 50 * MBPS,
    11: 50 * MBPS, 12: 50 * MBPS, 13: 50 * MBPS,
}
SECTION54_FLOWS = {
    "c1": ((0, 6, 7, 8), 0.070, 50 * MBPS),
    "c2": ((1, 6, 7, 9), 0.060, 50 * MBPS),
    "c3": ((2, 6, 7, 10), 0.060, 10 * MBPS),
    "c4": ((3, 7, 11), 0.050, 50 * MBPS),
    "c5": ((4, 7, 12), 0.040, 50 * MBPS),
    "c6": ((5, 7, 13), 0.040, 10 * MBPS),
}


def section54_flows(names):
    return [FlowDemand(name, SECTION54_FLOWS[name][1], SECTION54_FLOWS[name][0],
                       path_bandwidth=SECTION54_FLOWS[name][2])
            for name in names]


class TestFigure8Schedule:
    """The analytic shares the paper reports for each arrival stage."""

    @pytest.mark.parametrize("active,expected", [
        (["c1"], [50.0]),
        (["c1", "c2"], [23.08, 26.92]),
        (["c1", "c2", "c3"], [18.46, 21.54, 10.0]),
        (["c1", "c2", "c3", "c4"], [18.46, 21.54, 10.0, 50.0]),
        (["c1", "c2", "c3", "c4", "c5"], [16.93, 19.75, 10.0, 23.70, 29.62]),
        (["c1", "c2", "c3", "c4", "c5", "c6"],
         [15.05, 17.55, 10.0, 21.07, 26.33, 10.0]),
    ])
    def test_stage_allocations(self, active, expected):
        allocation = rtt_aware_max_min(section54_flows(active),
                                       SECTION54_CAPACITIES)
        for name, value in zip(active, expected):
            assert allocation[name] / MBPS == pytest.approx(value, rel=0.01)

    def test_matches_paper_within_half_percent(self):
        """Paper-reported values for the final stage (±0.5 %: their rounding)."""
        paper_values = {"c1": 15.04, "c2": 17.55, "c3": 10.0,
                        "c4": 21.06, "c5": 26.33, "c6": 10.0}
        allocation = rtt_aware_max_min(section54_flows(list(paper_values)),
                                       SECTION54_CAPACITIES)
        for name, value in paper_values.items():
            assert allocation[name] / MBPS == pytest.approx(value, rel=0.005)

    def test_two_step_agrees_except_known_stage(self):
        """The literal two-pass heuristic matches the fixed point everywhere
        except the five-flow stage, where one redistribution pass cannot
        re-balance across B1-B2 and B2-B3 simultaneously."""
        for active in (["c1"], ["c1", "c2"], ["c1", "c2", "c3"],
                       ["c1", "c2", "c3", "c4", "c5", "c6"]):
            exact = rtt_aware_max_min(section54_flows(active),
                                      SECTION54_CAPACITIES)
            heuristic = paper_two_step_shares(section54_flows(active),
                                              SECTION54_CAPACITIES)
            for name in active:
                assert heuristic[name] == pytest.approx(exact[name], rel=0.01)


class TestBasicProperties:
    def test_single_flow_gets_bottleneck(self):
        flows = [FlowDemand("f", 0.05, (0, 1), path_bandwidth=10 * MBPS)]
        allocation = rtt_aware_max_min(flows, {0: 10 * MBPS, 1: 100 * MBPS})
        assert allocation["f"] == pytest.approx(10 * MBPS)

    def test_equal_rtts_share_equally(self):
        flows = [FlowDemand(f"f{i}", 0.05, (0,)) for i in range(4)]
        allocation = rtt_aware_max_min(flows, {0: 100 * MBPS})
        for key in allocation:
            assert allocation[key] == pytest.approx(25 * MBPS)

    def test_rtt_bias_favours_short_flows(self):
        flows = [FlowDemand("short", 0.010, (0,)),
                 FlowDemand("long", 0.030, (0,))]
        allocation = rtt_aware_max_min(flows, {0: 40 * MBPS})
        # Shares proportional to 1/RTT: 30 and 10.
        assert allocation["short"] == pytest.approx(30 * MBPS)
        assert allocation["long"] == pytest.approx(10 * MBPS)

    def test_share_formula_fraction(self):
        """Share(f) = (RTT(f) * sum(1/RTT_i))^-1 of capacity."""
        rtts = [0.070, 0.060]
        flows = [FlowDemand(f"f{i}", rtt, (0,)) for i, rtt in enumerate(rtts)]
        allocation = rtt_aware_max_min(flows, {0: 50 * MBPS})
        inverse_sum = sum(1.0 / rtt for rtt in rtts)
        for flow, rtt in zip(flows, rtts):
            expected = 50 * MBPS / (rtt * inverse_sum)
            assert allocation[flow.key] == pytest.approx(expected)

    def test_demand_caps_allocation(self):
        flows = [FlowDemand("greedy", 0.05, (0,)),
                 FlowDemand("modest", 0.05, (0,), demand=5 * MBPS)]
        allocation = rtt_aware_max_min(flows, {0: 100 * MBPS})
        assert allocation["modest"] == pytest.approx(5 * MBPS)
        # Work conservation: the greedy flow takes the rest.
        assert allocation["greedy"] == pytest.approx(95 * MBPS)

    def test_empty_flow_set(self):
        assert rtt_aware_max_min([], {0: MBPS}) == {}
        assert paper_two_step_shares([], {0: MBPS}) == {}

    def test_flow_with_no_constraints_gets_path_bandwidth(self):
        flows = [FlowDemand("f", 0.05, (), path_bandwidth=7 * MBPS)]
        allocation = rtt_aware_max_min(flows, {})
        assert allocation["f"] == pytest.approx(7 * MBPS)

    def test_unknown_link_ids_ignored(self):
        """Links absent from the capacity map (infinite capacity) don't bind."""
        flows = [FlowDemand("f", 0.05, (0, 99), path_bandwidth=20 * MBPS)]
        allocation = rtt_aware_max_min(flows, {0: 10 * MBPS})
        assert allocation["f"] == pytest.approx(10 * MBPS)


# ---------------------------------------------------------------------------
# Property-based invariants of the allocator
# ---------------------------------------------------------------------------

@st.composite
def allocation_problem(draw):
    link_count = draw(st.integers(min_value=1, max_value=6))
    capacities = {i: draw(st.floats(min_value=1 * MBPS, max_value=100 * MBPS))
                  for i in range(link_count)}
    flow_count = draw(st.integers(min_value=1, max_value=8))
    flows = []
    for index in range(flow_count):
        path_length = draw(st.integers(min_value=1, max_value=link_count))
        path = tuple(draw(st.permutations(range(link_count)))[:path_length])
        rtt = draw(st.floats(min_value=0.001, max_value=0.5))
        flows.append(FlowDemand(f"f{index}", rtt, path,
                                path_bandwidth=min(capacities[i] for i in path)))
    return flows, capacities


@settings(max_examples=60, deadline=None)
@given(allocation_problem())
def test_no_link_oversubscribed(problem):
    flows, capacities = problem
    allocation = rtt_aware_max_min(flows, capacities)
    for link_id, capacity in capacities.items():
        used = sum(allocation[f.key] for f in flows if link_id in f.links)
        assert used <= capacity * (1 + 1e-6)


@settings(max_examples=60, deadline=None)
@given(allocation_problem())
def test_every_flow_gets_positive_rate(problem):
    flows, capacities = problem
    allocation = rtt_aware_max_min(flows, capacities)
    for flow in flows:
        assert allocation[flow.key] > 0


@settings(max_examples=60, deadline=None)
@given(allocation_problem())
def test_work_conserving_on_bottlenecks(problem):
    """Every flow is capped by at least one saturated link or its own cap."""
    flows, capacities = problem
    allocation = rtt_aware_max_min(flows, capacities)
    for flow in flows:
        rate = allocation[flow.key]
        at_own_cap = rate >= min(flow.demand, flow.path_bandwidth) - 1.0
        on_saturated_link = any(
            sum(allocation[f.key] for f in flows if link_id in f.links)
            >= capacities[link_id] * (1 - 1e-6)
            for link_id in flow.links if link_id in capacities)
        assert at_own_cap or on_saturated_link


@settings(max_examples=40, deadline=None)
@given(allocation_problem())
def test_allocation_is_deterministic(problem):
    flows, capacities = problem
    first = rtt_aware_max_min(flows, capacities)
    second = rtt_aware_max_min(list(flows), dict(capacities))
    assert first == second


# ---------------------------------------------------------------------------
# The filler of record, bit for bit
# ---------------------------------------------------------------------------

def fair_share_corpus(seed, count):
    """Seeded problems over every input shape the filler accepts.

    1–128 flows over up to 12 shared links and one private link each;
    shared links are finite, infinite, zero or absent from ``capacities``;
    a path may be empty or cross one link twice; demands and path
    bandwidths are finite, infinite or (demands) zero; RTTs repeat, so
    steps tie, and include 0 (a latency-free path).  Only ``random()``,
    ``randrange`` and ``choice`` are drawn and only ``+ * /`` applied, so
    the corpus is the same floats on every interpreter and libm.
    """
    rng = random.Random(seed)

    def rate(low, high):
        """Spread evenly over the decades 10**low .. 10**high."""
        return (1.0 + 9.0 * rng.random()) * 10 ** rng.randrange(low, high)

    for index in range(count):
        skew = rng.random()
        flow_count = (128 if index % 64 == 0
                      else 1 + int(127 * skew * skew * skew * skew))
        capacities, shared = {}, []
        for link_id in range(1 + rng.randrange(12)):
            shared.append(link_id)
            kind = rng.random()
            if kind < 0.70:
                capacities[link_id] = rate(5, 9)
            elif kind < 0.80:
                capacities[link_id] = INFINITY
            elif kind < 0.85:
                capacities[link_id] = 0.0
        flows = []
        for position in range(flow_count):
            path = []
            if rng.random() >= 0.08:
                for _ in range(1 + rng.randrange(min(4, len(shared)))):
                    link_id = rng.choice(shared)
                    if link_id not in path:
                        path.append(link_id)
                if rng.random() < 0.10:
                    path.append(path[0])                 # crossed twice
                if rng.random() < 0.50:
                    private = 1000 + position
                    capacities[private] = rate(5, 9)
                    path.append(private)
            rtt = rng.choice((0.0, 0.02, 0.05, rate(1, 5) / 1e5))
            kind = rng.random()
            demand = (INFINITY if kind < 0.60 else
                      0.0 if kind < 0.63 else rate(4, 9))
            finite = [capacities[link_id] for link_id in path
                      if capacities.get(link_id, INFINITY) != INFINITY]
            path_bandwidth = rng.choice((INFINITY, rate(5, 9),
                                         min(finite, default=INFINITY)))
            flows.append(FlowDemand(f"f{position}", rtt, tuple(path),
                                    demand, path_bandwidth))
        yield flows, capacities


def test_filler_matches_the_golden_bit_for_bit():
    """Every allocation and round count of the filler this one replaced.

    The golden was recorded from ``_python_max_min`` at 2bb860a — the
    implementation every checksum pinned — before it was tightened in
    place; ``float.hex()`` is exact, so ``==`` here means no float
    operation changed value or order.
    """
    golden = json.loads(GOLDEN.read_text())
    assert len(golden["problems"]) == golden["count"]
    corpus = fair_share_corpus(golden["seed"], golden["count"])
    for (flows, capacities), expected in zip(corpus, golden["problems"]):
        allocation, rounds = sharing._progressive_fill(flows, capacities)
        assert list(allocation) == [flow.key for flow in flows]
        assert [rate.hex() for rate in allocation.values()] == expected[
            "allocation"]
        assert rounds == expected["rounds"]


def test_high_rate_solves_terminate_within_capacity():
    """From 1e8 bits/s up one double ulp exceeds the filler's absolute
    1e-9 tolerance, so a round can end a hair short of the bound that set
    its step and freeze nobody.  The next round closes the gap: a round
    or two over ``F`` (``F + 2`` observed), never a stall, and no link
    oversubscribed — which is why the filler carries no round guard and
    no magnitude-scaled slack."""
    rng = random.Random(64)
    for _ in range(2000):
        capacities = {link_id: 10 ** rng.uniform(8, 11)
                      for link_id in range(rng.randint(1, 4))}
        flows = []
        for position in range(rng.randint(2, 40)):
            path = rng.sample(sorted(capacities),
                              rng.randint(1, len(capacities)))
            flows.append(FlowDemand(
                position, rng.uniform(1e-4, 0.5), tuple(path),
                path_bandwidth=min(capacities[i] for i in path)))
        allocation, rounds = sharing._progressive_fill(flows, capacities)
        assert rounds <= 2 * len(flows) + 8
        for link_id, capacity in capacities.items():
            used = sum(allocation[flow.key] for flow in flows
                       if link_id in flow.links)
            assert used <= capacity * (1 + 1e-9)
