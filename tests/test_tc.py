"""Traffic-control substrate: htb, netem, u32 and the TCAL facade."""

import random
import statistics
from functools import partial
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro import telemetry
from repro.core.properties import PathProperties
from repro.sim import RngRegistry
from repro.tc import IpAllocator, Ipv4Address, NetemQdisc, Tcal, U32Filter
from repro.tc.htb import BackPressure, HtbClass, HtbQdisc
from repro.tc.tcal import PathShaping


class TestIpv4:
    def test_parse_and_str_round_trip(self):
        address = Ipv4Address.parse("10.1.3.7")
        assert str(address) == "10.1.3.7"
        assert address.octets == (10, 1, 3, 7)

    def test_third_and_fourth_octets(self):
        address = Ipv4Address.parse("10.1.200.45")
        assert address.third_octet == 200
        assert address.fourth_octet == 45

    def test_octet_out_of_range(self):
        with pytest.raises(ValueError):
            Ipv4Address.from_octets(10, 1, 300, 1)

    def test_allocator_sequential_within_slash16(self):
        allocator = IpAllocator()
        first = allocator.assign("a")
        second = allocator.assign("b")
        assert str(first) == "10.1.0.1"
        assert str(second) == "10.1.0.2"

    def test_allocator_idempotent(self):
        allocator = IpAllocator()
        assert allocator.assign("a") == allocator.assign("a")
        assert len(allocator) == 1

    def test_reverse_lookup(self):
        allocator = IpAllocator()
        address = allocator.assign("svc.0")
        assert allocator.reverse(address) == "svc.0"

    def test_lookup_unassigned_raises(self):
        with pytest.raises(KeyError):
            IpAllocator().lookup("ghost")


class TestU32Filter:
    def test_classify_after_add(self):
        filter_ = U32Filter()
        filter_.add_match(Ipv4Address.parse("10.1.2.3"), class_id=7)
        assert filter_.classify(Ipv4Address.parse("10.1.2.3")) == 7

    def test_no_rule_returns_none(self):
        assert U32Filter().classify(Ipv4Address.parse("10.1.2.3")) is None

    def test_same_third_octet_no_collision(self):
        """The two-level table distinguishes .x.1 from .x.2 (no collisions)."""
        filter_ = U32Filter()
        filter_.add_match(Ipv4Address.parse("10.1.5.1"), 1)
        filter_.add_match(Ipv4Address.parse("10.1.5.2"), 2)
        assert filter_.classify(Ipv4Address.parse("10.1.5.1")) == 1
        assert filter_.classify(Ipv4Address.parse("10.1.5.2")) == 2

    def test_remove_match(self):
        filter_ = U32Filter()
        address = Ipv4Address.parse("10.1.0.9")
        filter_.add_match(address, 3)
        filter_.remove_match(address)
        assert filter_.classify(address) is None
        with pytest.raises(KeyError):
            filter_.remove_match(address)

    def test_rule_count(self):
        filter_ = U32Filter()
        filter_.add_match(Ipv4Address.parse("10.1.0.1"), 1)
        filter_.add_match(Ipv4Address.parse("10.1.0.2"), 2)
        filter_.add_match(Ipv4Address.parse("10.1.0.1"), 9)  # replace
        assert filter_.rules == 2


class TestHtb:
    def test_rate_paces_long_run_throughput(self):
        """Sending 100 x 10 kbit packets at 1 Mb/s takes ~1 s."""
        htb = HtbClass(rate=1e6, burst=0.0, queue_bits=1e9)
        finish = 0.0
        for _ in range(100):
            finish = htb.enqueue(0.0, 10e3)
        assert finish == pytest.approx(1.0, rel=1e-6)

    def test_idle_burst_releases_immediately(self):
        htb = HtbClass(rate=1e6)
        first = htb.enqueue(10.0, 1500 * 8)
        assert first == pytest.approx(10.0 + 1500 * 8 / 1e6)

    def test_backpressure_not_drop_when_full(self):
        """Paper §3: a full htb queue back-pressures instead of dropping."""
        htb = HtbClass(rate=1e6, queue_bits=20e3)
        htb.enqueue(0.0, 10e3)
        htb.enqueue(0.0, 10e3)
        with pytest.raises(BackPressure) as info:
            htb.enqueue(0.0, 10e3)
        assert info.value.retry_at > 0.0
        assert htb.backpressure_events == 1

    def test_backlog_drains_over_time(self):
        htb = HtbClass(rate=1e6, queue_bits=20e3)
        htb.enqueue(0.0, 10e3)
        htb.enqueue(0.0, 10e3)
        assert htb.backlog_bits(0.0) == pytest.approx(20e3)
        assert htb.backlog_bits(0.01) == pytest.approx(10e3)
        # After draining, the queue admits packets again.
        htb.enqueue(0.02, 10e3)

    def test_set_rate_applies_to_new_packets(self):
        htb = HtbClass(rate=1e6, burst=0.0, queue_bits=1e9)
        htb.enqueue(0.0, 1e6)  # occupies the wire until t=1.0
        htb.set_rate(2e6)
        finish = htb.enqueue(0.0, 1e6)
        assert finish == pytest.approx(1.5)

    def test_zero_rate_rejected(self):
        with pytest.raises(ValueError):
            HtbClass(rate=1e6).set_rate(0.0)

    def test_qdisc_default_rate_only_when_no_rate_is_given(self):
        qdisc = HtbQdisc(default_rate=5e6)
        assert qdisc.ensure_class(1).rate == 5e6
        assert qdisc.ensure_class(2, 1e6).rate == 1e6
        with pytest.raises(ValueError):
            qdisc.ensure_class(3, 0.0)
        assert sorted(qdisc.classes()) == [1, 2]

    def test_qdisc_remove_class(self):
        qdisc = HtbQdisc()
        qdisc.ensure_class(1)
        qdisc.remove_class(1)
        assert qdisc.classes() == {}
        with pytest.raises(KeyError):
            qdisc.remove_class(1)

    def test_counters(self):
        htb = HtbClass(rate=1e9)
        htb.enqueue(0.0, 8000)
        htb.enqueue(0.0, 8000)
        assert htb.bits_sent == 16000
        assert htb.packets_sent == 2
        htb.reset_counters()
        assert htb.bits_sent == 0


class TestNetem:
    def test_no_jitter_constant_delay(self):
        netem = NetemQdisc(latency=0.010)
        assert netem.sample_delay() == 0.010

    def test_normal_jitter_statistics(self):
        rng = random.Random(1)
        netem = NetemQdisc(latency=0.100, jitter=0.005, rng=rng)
        samples = [netem.sample_delay() for _ in range(4000)]
        assert statistics.mean(samples) == pytest.approx(0.100, abs=0.001)
        assert statistics.stdev(samples) == pytest.approx(0.005, rel=0.10)

    def test_uniform_jitter_statistics(self):
        rng = random.Random(2)
        netem = NetemQdisc(latency=0.100, jitter=0.005, rng=rng,
                           distribution="uniform")
        samples = [netem.sample_delay() for _ in range(4000)]
        assert statistics.stdev(samples) == pytest.approx(0.005, rel=0.10)
        assert max(samples) <= 0.100 + 0.005 * (3 ** 0.5) + 1e-9

    def test_delay_never_below_latency_floor(self):
        rng = random.Random(3)
        netem = NetemQdisc(latency=0.010, jitter=0.050, rng=rng)
        assert min(netem.sample_delay() for _ in range(2000)) >= 0.005

    def test_loss_rate(self):
        rng = random.Random(4)
        netem = NetemQdisc(loss=0.3, rng=rng)
        outcomes = [netem.process() for _ in range(5000)]
        dropped = sum(1 for outcome in outcomes if outcome is None)
        assert dropped / 5000 == pytest.approx(0.3, abs=0.02)
        assert netem.packets_dropped == dropped

    def test_configure_partial_update(self):
        netem = NetemQdisc(latency=0.010, jitter=0.001)
        netem.configure(loss=0.05)
        assert netem.latency == 0.010
        assert netem.loss == 0.05

    def test_configure_rejects_bad_loss(self):
        with pytest.raises(ValueError):
            NetemQdisc().configure(loss=1.5)

    def test_process_draws_loss_first_then_jitter(self):
        """The per-packet RNG contract the event-order golden rests on:
        one uniform for loss (only when loss > 0), then one jitter sample
        (only when jitter > 0 and the packet survived) — nothing else."""
        netem = NetemQdisc(latency=0.010, jitter=0.002, loss=0.5,
                           rng=random.Random(9))
        mirror = random.Random(9)
        for _ in range(200):
            if mirror.random() < 0.5:
                expected = None
            else:
                expected = max(0.005, 0.010 + mirror.gauss(0.0, 0.002))
            assert netem.process() == expected
        assert netem.rng.getstate() == mirror.getstate()

    def test_process_draws_nothing_without_loss_or_jitter(self):
        rng = random.Random(9)
        before = rng.getstate()
        netem = NetemQdisc(latency=0.010, rng=rng)
        assert [netem.process() for _ in range(10)] == [0.010] * 10
        assert rng.getstate() == before


def _the_long_way_round(netem, htb, now, size_bits):
    """What one packet costs with no short-cut: netem, then htb."""
    added_delay = netem.process()
    if added_delay is None:
        return None
    return htb.enqueue(now, size_bits) + added_delay


class TestPathShapingEgress:
    """:meth:`PathShaping.egress` may skip netem's calls when they would
    draw nothing; what comes out — release times to the last bit, the RNG
    stream, every counter — is what the long way round produces."""

    @settings(max_examples=200, deadline=None)
    @given(latency=st.floats(0.0, 0.5), rate=st.floats(1e3, 1e10),
           loss=st.sampled_from([0.0, 0.0, 0.3]),
           jitter=st.sampled_from([0.0, 0.0, 0.004]),
           packets=st.lists(st.tuples(st.floats(0.0, 0.05),
                                      st.floats(64.0, 96e3)),
                            min_size=1, max_size=40))
    def test_egress_equals_netem_then_htb(self, latency, rate, loss, jitter,
                                          packets):
        rng, twin_rng = random.Random(11), random.Random(11)
        shaping = PathShaping(
            1, NetemQdisc(latency=latency, jitter=jitter, loss=loss, rng=rng),
            HtbClass(rate), "destination")
        netem = NetemQdisc(latency=latency, jitter=jitter, loss=loss,
                           rng=twin_rng)
        htb = HtbClass(rate)
        untouched = rng.getstate()
        now = carried = 0.0
        for gap, size_bits in packets:
            now += gap
            outcomes = []
            for egress in (lambda: shaping.egress(now, size_bits),
                           lambda: _the_long_way_round(netem, htb, now,
                                                       size_bits)):
                try:
                    outcomes.append(egress())
                except BackPressure as pressure:
                    outcomes.append(("EAGAIN", pressure.retry_at))
            assert outcomes[0] == outcomes[1]       # ==: bit-equal floats
            if isinstance(outcomes[1], float):
                carried += size_bits
        assert rng.getstate() == twin_rng.getstate()
        if loss == 0.0 and jitter == 0.0:
            assert rng.getstate() == untouched
        assert shaping.bits_since_poll == carried
        assert (shaping.netem.packets_delayed, shaping.netem.packets_dropped,
                shaping.htb.packets_sent, shaping.htb.bits_sent,
                shaping.htb.backpressure_events) == (
            netem.packets_delayed, netem.packets_dropped,
            htb.packets_sent, htb.bits_sent, htb.backpressure_events)


class TestTcal:
    def build(self):
        allocator = IpAllocator()
        allocator.assign("client")
        allocator.assign("server")
        tcal = Tcal("client", allocator, rng=random.Random(7))
        tcal.install_destination("server", latency=0.010, jitter=0.0,
                                 loss=0.0, bandwidth=1e6)
        return tcal

    def test_egress_applies_latency_and_pacing(self):
        tcal = self.build()
        release = tcal.egress(0.0, "server", 8000)
        assert release == pytest.approx(0.010 + 8000 / 1e6)

    def test_netem_loss_drops(self):
        tcal = self.build()
        tcal.set_netem("server", loss=1.0)
        assert tcal.egress(0.0, "server", 8000) is None

    def test_poll_usage_reports_and_resets(self):
        tcal = self.build()
        tcal.egress(0.0, "server", 8000)
        tcal.egress(0.0, "server", 8000)
        assert tcal.poll_active() == {"server": (16000, 0.0)}
        assert tcal.poll_active() == {}

    def test_set_bandwidth_changes_pacing(self):
        tcal = self.build()
        tcal.set_bandwidth("server", 2e6)
        release = tcal.egress(0.0, "server", 8000)
        assert release == pytest.approx(0.010 + 8000 / 2e6)

    def test_classify_via_u32(self):
        tcal = self.build()
        address = tcal.allocator.lookup("server")
        assert tcal.classify(address) is not None

    def test_install_is_idempotent_reconfigure(self):
        tcal = self.build()
        shaping_before = tcal.shaping_for("server")
        tcal.install_destination("server", latency=0.020, jitter=0.0,
                                 loss=0.0, bandwidth=5e6)
        assert tcal.shaping_for("server") is shaping_before
        assert shaping_before.netem.latency == 0.020
        assert shaping_before.htb.rate == 5e6

    def test_remove_destination(self):
        tcal = self.build()
        tcal.remove_destination("server")
        with pytest.raises(KeyError):
            tcal.shaping_for("server")

    def test_has_destination_follows_install_and_remove(self):
        tcal = self.build()
        assert tcal.has_destination("server")
        assert not tcal.has_destination("ghost")
        tcal.remove_destination("server")
        assert not tcal.has_destination("server")

    def test_remove_then_reinstall_does_not_leak_the_htb_class(self):
        tcal = self.build()
        for _ in range(3):
            tcal.remove_destination("server")
            assert tcal.qdisc.classes() == {}
            assert tcal.filter.rules == 0
            tcal.install_destination("server", latency=0.010, jitter=0.0,
                                     loss=0.0, bandwidth=1e6)
            assert len(tcal.qdisc.classes()) == len(tcal.destinations()) == 1

    @pytest.mark.parametrize("bandwidth", [0.0, -1e6])
    def test_non_positive_bandwidth_rejected_on_first_install(self, bandwidth):
        allocator = IpAllocator()
        allocator.assign("server")
        tcal = Tcal("client", allocator)
        with pytest.raises(ValueError, match="htb rate must be positive"):
            tcal.install_destination("server", latency=0.010, jitter=0.0,
                                     loss=0.0, bandwidth=bandwidth)
        # A refused install leaves nothing behind.
        assert tcal.destinations() == ()
        assert tcal.qdisc.classes() == {}
        assert tcal.filter.rules == 0

    def test_non_positive_bandwidth_rejected_on_reconfigure(self):
        tcal = self.build()
        with pytest.raises(ValueError, match="htb rate must be positive"):
            tcal.install_destination("server", latency=0.010, jitter=0.0,
                                     loss=0.0, bandwidth=0.0)
        assert tcal.shaping_for("server").htb.rate == 1e6

    def test_egress_draws_like_netem_process(self):
        """Tcal.egress, the data plane's per-packet step and a bare
        ``NetemQdisc.process`` consume the RNG identically."""
        tcal = self.build()
        tcal.install_destination("server", latency=0.010, jitter=0.002,
                                 loss=0.2, bandwidth=1e9)
        mirror = NetemQdisc(latency=0.010, jitter=0.002, loss=0.2,
                            rng=random.Random(7))
        for step in range(200):
            release = tcal.egress(float(step), "server", 8000)
            delay = mirror.process()
            if delay is None:
                assert release is None
            else:
                assert release == float(step) + 8000 / 1e9 + delay
        assert tcal.rng.getstate() == mirror.rng.getstate()

    def test_unknown_destination_raises(self):
        tcal = self.build()
        with pytest.raises(KeyError):
            tcal.egress(0.0, "ghost", 8000)

    def test_netlink_call_accounting(self):
        tcal = self.build()
        calls_before = tcal.netlink_calls
        tcal.set_bandwidth("server", 2e6)
        tcal.poll_active()
        assert tcal.netlink_calls == calls_before + 2


class TestTcalRow:
    """Chains are built on first use from the row of the state in force."""

    @staticmethod
    def path(latency=0.010, jitter=0.0, loss=0.0, bandwidth=1e6):
        return SimpleNamespace(properties=PathProperties(
            latency=latency, jitter=jitter, loss=loss, bandwidth=bandwidth,
            hops=2))

    def build(self, **row):
        allocator = IpAllocator()
        for name in ("client", "server", "other", "third"):
            allocator.assign(name)
        tcal = Tcal("client", allocator, rng=random.Random(7))
        assert tcal.install_row(row.get) == 0
        return tcal

    def test_a_row_builds_nothing_by_itself(self):
        tcal = self.build(server=self.path(), other=self.path())
        assert tcal.destinations() == ()
        assert tcal.qdisc.classes() == {} and tcal.filter.rules == 0
        assert tcal.has_destination("server")
        assert tcal.has_destination("other")
        assert not tcal.has_destination("third")
        assert tcal.destinations() == ()        # asking builds nothing

    def test_first_use_builds_the_chain_from_the_row(self):
        tcal = self.build(
            server=self.path(latency=0.020, jitter=0.003, loss=0.25,
                             bandwidth=4e6),
            other=self.path())
        shaping = tcal.shaping_for("server")
        assert tcal.destinations() == ("server",)
        assert (shaping.netem.latency, shaping.netem.jitter,
                shaping.netem.loss, shaping.htb.rate) == \
            (0.020, 0.003, 0.25, 4e6)
        assert tcal.shaping_for("server") is shaping
        assert tcal.classify(tcal.allocator.lookup("server")) == \
            shaping.class_id
        # egress is a first use too.
        assert tcal.egress(0.0, "other", 8000) == \
            pytest.approx(0.010 + 8000 / 1e6)
        assert tcal.destinations() == ("server", "other")
        assert len(tcal.qdisc.classes()) == tcal.filter.rules == 2

    def test_building_a_chain_draws_nothing(self):
        tcal = self.build(server=self.path(jitter=0.002, loss=0.2))
        before = tcal.rng.getstate()
        tcal.shaping_for("server")
        assert tcal.rng.getstate() == before

    def test_unreachable_destination_raises_the_same_key_error(self):
        tcal = self.build(server=self.path())
        for destination in ("third", "ghost"):
            with pytest.raises(KeyError) as info:
                tcal.shaping_for(destination)
            assert info.value.args == (
                f"client: no chain towards {destination!r}",)
            with pytest.raises(KeyError):
                tcal.egress(0.0, destination, 8000)
        assert tcal.destinations() == ()

    def test_chain_first_used_after_a_swap_carries_the_new_state(self):
        tcal = self.build(server=self.path(latency=0.010, bandwidth=1e6))
        tcal.install_row({"server": self.path(latency=0.030,
                                              bandwidth=2e6)}.get)
        shaping = tcal.shaping_for("server")
        assert (shaping.netem.latency, shaping.htb.rate) == (0.030, 2e6)

    def test_swap_touches_exactly_the_chains_that_exist(self):
        tcal = self.build(server=self.path(), other=self.path(),
                          third=self.path())
        used = tcal.shaping_for("server")
        # A manager throttled it; the swap resets it to its path, as an
        # eager re-install would.
        tcal.set_bandwidth("server", 1e3)
        tcal.set_netem("server", loss=0.5)
        calls = tcal.netlink_calls
        row = {"server": self.path(latency=0.015, bandwidth=3e6),
               "other": self.path(latency=0.040), "third": self.path()}.get
        assert tcal.install_row(row) == 1
        assert tcal.destinations() == ("server",)
        assert tcal.shaping_for("server") is used
        assert (used.netem.latency, used.netem.loss, used.htb.rate) == \
            (0.015, 0.0, 3e6)
        assert tcal.netlink_calls == calls      # a state install, not a write
        # The same row again still resets: no diffing against the last one.
        tcal.set_bandwidth("server", 1e3)
        assert tcal.install_row(row) == 1
        assert used.htb.rate == 3e6

    def test_a_destination_that_leaves_loses_its_chain(self):
        tcal = self.build(server=self.path(), other=self.path())
        first = tcal.shaping_for("server")
        tcal.shaping_for("other")
        first.record(8000)
        assert tcal.install_row({"other": self.path()}.get) == 2
        assert tcal.destinations() == ("other",)
        assert not tcal.has_destination("server")
        assert len(tcal.qdisc.classes()) == tcal.filter.rules == 1
        assert tcal.classify(tcal.allocator.lookup("server")) is None
        with pytest.raises(KeyError):
            tcal.egress(0.0, "server", 8000)
        # It comes back: reachable at once, a fresh chain on first use.
        tcal.install_row({"server": self.path(latency=0.050),
                          "other": self.path()}.get)
        assert tcal.has_destination("server")
        assert tcal.destinations() == ("other",)
        again = tcal.shaping_for("server")
        assert again is not first
        assert again.bits_since_poll == 0.0 and again.netem.latency == 0.050
        assert again.class_id not in (first.class_id,
                                      tcal.shaping_for("other").class_id)
        assert len(tcal.qdisc.classes()) == tcal.filter.rules == 2

    def test_polls_list_the_chains_that_exist(self):
        tcal = self.build(server=self.path(), other=self.path())
        tcal.egress(0.0, "server", 8000)
        assert tcal.poll_active() == {"server": (8000, 0.0)}
        assert tcal.poll_active() == {}
        assert tcal.destinations() == ("server",)

    def test_explicit_install_builds_eagerly_whatever_the_row_says(self):
        tcal = self.build(server=self.path())
        tcal.install_destination("third", latency=0.001, jitter=0.0,
                                 loss=0.0, bandwidth=9e6)
        assert tcal.destinations() == ("third",)
        assert tcal.has_destination("third")
        # Reconfigures in place, and a row that does not know it drops it.
        shaping = tcal.install_destination("third", latency=0.002,
                                           jitter=0.0, loss=0.0,
                                           bandwidth=8e6)
        assert tcal.shaping_for("third") is shaping
        assert (shaping.netem.latency, shaping.htb.rate) == (0.002, 8e6)
        assert tcal.install_row({"server": self.path()}.get) == 1
        assert tcal.destinations() == ()

    def test_chains_built_counter(self):
        telemetry.metrics.clear()
        telemetry.enable()
        try:
            tcal = self.build(server=self.path(), other=self.path())
            tcal.shaping_for("server")
            tcal.shaping_for("server")
            tcal.install_row({"server": self.path()}.get)
            tcal.install_destination("third", latency=0.0, jitter=0.0,
                                     loss=0.0, bandwidth=1e6)
            built = telemetry.metrics.snapshot()["tc.chains_built"]["value"]
        finally:
            telemetry.disable()
            telemetry.metrics.clear()
        assert built == 2


class TestTcalStream:
    """An engine hands each TCAL a function making its ``netem:<c>``
    stream, made on the first chain that can draw.  A stream's seed is
    the root seed and its name, so making it late draws what making it
    at build drew."""

    SEED = 11

    def build(self, **row):
        registry = RngRegistry(self.SEED)
        allocator = IpAllocator()
        for name in ("client", "server", "other"):
            allocator.assign(name)
        tcal = Tcal("client", allocator,
                    rng=partial(registry.stream, "netem:client"))
        tcal.install_row(row.get)
        return registry, tcal

    def mirror(self):
        return RngRegistry(self.SEED).stream("netem:client")

    @pytest.mark.parametrize("how", ["set_netem", "install_row"])
    def test_a_chain_given_loss_later_drops_what_the_stream_predicts(
            self, how):
        registry, tcal = self.build(server=TestTcalRow.path())
        for step in range(50):
            assert tcal.egress(float(step), "server", 8000) is not None
        assert tcal.rng is None and registry._streams == {}
        if how == "set_netem":
            tcal.set_netem("server", loss=0.3)
        else:
            assert tcal.install_row(
                {"server": TestTcalRow.path(loss=0.3)}.get) == 1
        dropped = [tcal.egress(float(step), "server", 8000) is None
                   for step in range(50, 350)]
        mirror = self.mirror()
        assert dropped == [mirror.random() < 0.3 for _ in range(300)]
        assert 50 < sum(dropped) < 130
        assert tcal.shaping_for("server").netem.rng is tcal.rng \
            is registry.stream("netem:client")

    def test_two_chains_of_one_container_share_the_one_stream(self):
        registry, tcal = self.build(
            server=TestTcalRow.path(jitter=0.002, loss=0.1),
            other=TestTcalRow.path(latency=0.030, jitter=0.004, loss=0.2))
        stream = self.mirror()
        mirrors = {"server": NetemQdisc(latency=0.010, jitter=0.002,
                                        loss=0.1, rng=stream),
                   "other": NetemQdisc(latency=0.030, jitter=0.004,
                                       loss=0.2, rng=stream)}
        for step in range(200):
            destination = ("server", "other")[step % 3 == 0]
            release = tcal.egress(float(step), destination, 8000)
            delay = mirrors[destination].process()
            if delay is None:
                assert release is None
            else:
                assert release == float(step) + 8000 / 1e6 + delay
        assert tcal.shaping_for("server").netem.rng is \
            tcal.shaping_for("other").netem.rng is tcal.rng
        assert list(registry._streams) == ["netem:client"]
        assert tcal.rng.getstate() == stream.getstate()

    def test_a_container_that_never_draws_makes_no_stream(self):
        registry, tcal = self.build(server=TestTcalRow.path(),
                                    other=TestTcalRow.path())
        tcal.install_destination("other", latency=0.002, jitter=0.0,
                                 loss=0.0, bandwidth=1e6)
        for step in range(20):
            tcal.egress(float(step), "server", 8000)
        tcal.set_bandwidth("server", 2e6)
        tcal.set_netem("server", latency=0.020, loss=0.0)
        tcal.install_row({"server": TestTcalRow.path(latency=0.005)}.get)
        tcal.poll_active()
        assert tcal.rng is None and registry._streams == {}
        assert tcal.shaping_for("server").netem.rng is None

    def test_a_run_makes_the_streams_of_the_containers_that_draw(self):
        from repro.scenario import Scenario, ping
        run = (Scenario.build("streams").service("a").service("b")
               .service("c").bridges("s")
               .link("a", "s", latency="1ms", loss="10%", up="10Mbps")
               .link("s", "b", latency="1ms", up="10Mbps")
               .link("c", "s", latency="1ms", up="10Mbps")
               .workload(ping("a", "b", count=20), ping("c", "b", count=20))
               .deploy(machines=2, seed=4).compile().run())
        assert run["ping:a->b"].received < 20 == run["ping:c->b"].received
        assert sorted(run.engine.rng._streams) == ["netem:a", "netem:b"]
