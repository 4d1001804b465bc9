"""Discrete-event kernel: ordering, cancellation, processes, RNG streams."""

import pytest

from repro.sim import Process, RngRegistry, SimError, Simulator


class TestSimulator:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        order = []
        sim.at(3.0, lambda: order.append("c"))
        sim.at(1.0, lambda: order.append("a"))
        sim.at(2.0, lambda: order.append("b"))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_same_time_events_fire_in_schedule_order(self):
        sim = Simulator()
        order = []
        for tag in "abcde":
            sim.at(1.0, lambda tag=tag: order.append(tag))
        sim.run()
        assert order == list("abcde")

    def test_priority_breaks_ties(self):
        sim = Simulator()
        order = []
        sim.at(1.0, lambda: order.append("low"), priority=5)
        sim.at(1.0, lambda: order.append("high"), priority=-5)
        sim.run()
        assert order == ["high", "low"]

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.at(2.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [2.5]
        assert sim.now == 2.5

    def test_run_until_stops_before_later_events(self):
        sim = Simulator()
        fired = []
        sim.at(1.0, lambda: fired.append(1))
        sim.at(5.0, lambda: fired.append(5))
        sim.run(until=2.0)
        assert fired == [1]
        assert sim.now == 2.0
        sim.run(until=10.0)
        assert fired == [1, 5]

    def test_events_scheduled_during_run_execute(self):
        sim = Simulator()
        seen = []

        def first():
            sim.after(1.0, lambda: seen.append("second"))

        sim.at(1.0, first)
        sim.run()
        assert seen == ["second"]

    def test_cancelled_event_skipped(self):
        sim = Simulator()
        seen = []
        event = sim.at(1.0, lambda: seen.append("x"))
        sim.cancel(event)
        sim.run()
        assert seen == []

    def test_scheduling_in_past_raises(self):
        sim = Simulator()
        sim.at(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimError):
            sim.at(1.0, lambda: None)

    def test_negative_delay_raises(self):
        with pytest.raises(SimError):
            Simulator().after(-1.0, lambda: None)

    def test_step_returns_false_when_empty(self):
        sim = Simulator()
        assert sim.step() is False
        sim.at(1.0, lambda: None)
        assert sim.step() is True
        assert sim.step() is False

    def test_pending_counts_live_events(self):
        sim = Simulator()
        event = sim.at(1.0, lambda: None)
        sim.at(2.0, lambda: None)
        assert sim.pending() == 2
        sim.cancel(event)
        assert sim.pending() == 1

    def test_pending_drops_as_events_dispatch(self):
        sim = Simulator()
        for time in (1.0, 2.0, 3.0):
            sim.at(time, lambda: None)
        sim.run(until=2.0)
        assert sim.pending() == 1

    @pytest.mark.parametrize("time", [float("nan"), float("inf"),
                                      float("-inf")])
    def test_non_finite_time_rejected(self, time):
        sim = Simulator()
        with pytest.raises(SimError):
            sim.at(time, lambda: None)
        assert sim.pending() == 0
        sim.run()
        assert sim.now == 0.0

    @pytest.mark.parametrize("delay", [float("nan"), float("inf")])
    def test_non_finite_delay_rejected(self, delay):
        sim = Simulator()
        with pytest.raises(SimError):
            sim.after(delay, lambda: None)
        assert sim.pending() == 0

    def test_positional_args_reach_the_callback(self):
        sim = Simulator()
        seen = []
        sim.at(1.0, seen.append, "at")
        sim.after(2.0, lambda *args: seen.append(args), "after", 2)
        sim.at(3.0, lambda: seen.append("no args"))
        sim.run()
        assert seen == ["at", ("after", 2), "no args"]

    def test_priority_and_label_stay_keywords_beside_args(self):
        sim = Simulator()
        order = []
        late = sim.at(1.0, order.append, "late", priority=5, label="late")
        sim.at(1.0, order.append, "early", priority=-5)
        sim.run()
        assert order == ["early", "late"]
        assert (late[1], late[5], late[4]) == (5, "late", ("late",))

    def test_cancel_after_schedule_with_args(self):
        sim = Simulator()
        seen = []
        doomed = sim.after(1.0, seen.append, "cancelled")
        sim.after(1.0, seen.append, "kept")
        sim.cancel(doomed)
        assert sim.pending() == 1
        sim.run()
        assert seen == ["kept"]
        assert sim.events_dispatched == 1

    def test_event_handle_exposes_its_ordering_key(self):
        sim = Simulator()
        first = sim.at(2.0, lambda: None, priority=3)
        second = sim.after(2.0, lambda: None)
        assert (first[0], first[1]) == (2.0, 3)
        assert second[2] == first[2] + 1


class TestProcess:
    def test_periodic_ticks(self):
        sim = Simulator()
        times = []
        process = Process(sim, period=1.0, tick=lambda: times.append(sim.now))
        sim.run(until=3.5)
        process.stop()
        assert times == [0.0, 1.0, 2.0, 3.0]

    def test_start_after_offsets_first_tick(self):
        sim = Simulator()
        times = []
        Process(sim, period=1.0, tick=lambda: times.append(sim.now),
                start_after=0.5)
        sim.run(until=2.6)
        assert times == [0.5, 1.5, 2.5]

    def test_returning_false_stops(self):
        sim = Simulator()
        count = []

        def tick():
            count.append(1)
            return len(count) < 3

        process = Process(sim, period=1.0, tick=tick)
        sim.run()
        assert len(count) == 3
        assert process.stopped

    def test_stop_cancels_future_ticks(self):
        sim = Simulator()
        count = []
        process = Process(sim, period=1.0, tick=lambda: count.append(1))
        sim.at(2.5, process.stop)
        sim.run(until=10.0)
        assert len(count) == 3  # at t = 0, 1, 2

    def test_zero_period_rejected(self):
        with pytest.raises(SimError):
            Process(Simulator(), period=0.0, tick=lambda: None)


class TestRngRegistry:
    def test_same_name_same_stream_object(self):
        registry = RngRegistry(7)
        assert registry.stream("netem") is registry.stream("netem")

    def test_streams_are_reproducible_across_registries(self):
        first = RngRegistry(42).stream("jitter")
        second = RngRegistry(42).stream("jitter")
        assert [first.random() for _ in range(5)] == \
               [second.random() for _ in range(5)]

    def test_different_names_are_decorrelated(self):
        registry = RngRegistry(42)
        a = [registry.stream("a").random() for _ in range(5)]
        b = [registry.stream("b").random() for _ in range(5)]
        assert a != b

    def test_different_seeds_differ(self):
        a = RngRegistry(1).stream("x").random()
        b = RngRegistry(2).stream("x").random()
        assert a != b

    def test_fork_is_deterministic(self):
        a = RngRegistry(9).fork("host-1").stream("s").random()
        b = RngRegistry(9).fork("host-1").stream("s").random()
        c = RngRegistry(9).fork("host-2").stream("s").random()
        assert a == b
        assert a != c
