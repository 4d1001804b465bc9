"""Unit-level tests of the Emulation Manager and Core internals."""

import pytest

import repro.core.engine as engine_module
from repro.core.collapse import collapse
from repro.core.emucore import EmulationCore, UsageSample
from repro.core.manager import EmulationManager
from repro.metadata.channels import MediaDriver
from repro.metadata.encoding import FlowRecord, MetadataMessage
from repro.sim import Simulator
from repro.tc.ip import IpAllocator
from repro.tc.tcal import Tcal
from repro.scenario import set_link
from repro.scenario.topologies import dumbbell, throttling

MBPS = 1e6


def build_manager(sim=None, *, machine="m0", index=0, period=0.05,
                  containers=("client0", "server0", "client1", "server1"),
                  **kwargs):
    sim = sim or Simulator()
    driver = MediaDriver(sim, machine)
    indices = {name: i for i, name in enumerate(containers)}
    manager = EmulationManager(sim, machine, driver, index, indices,
                               period=period, **kwargs)
    topology = dumbbell(2, shared_bandwidth=50 * MBPS).compile().topology
    manager.install_state(collapse(topology),
                          {link.link_id: link.properties.bandwidth
                           for link in topology.links()})
    return sim, manager, topology


def attach_core(sim, manager, container, destination, *, bandwidth=50 * MBPS):
    allocator = IpAllocator()
    for name in (container, destination):
        allocator.assign(name)
    tcal = Tcal(container, allocator)
    tcal.install_destination(destination, latency=0.01, jitter=0.0,
                             loss=0.0, bandwidth=bandwidth)
    core = EmulationCore(container, tcal)
    manager.add_core(core)
    return core


class TestUsageSampling:
    def test_idle_destination_not_reported(self):
        sim, manager, _ = build_manager()
        core = attach_core(sim, manager, "client0", "server0")
        assert core.sample_usage(0.05, now=0.05) == {}

    def test_rate_computed_from_elapsed_time(self):
        sim, manager, _ = build_manager()
        core = attach_core(sim, manager, "client0", "server0")
        core.tcal.shaping_for("server0").record(1e6)
        samples = core.sample_usage(0.05, now=0.1)  # first poll: 0.1 s
        assert samples["server0"].rate == pytest.approx(1e7)

    def test_rate_clamped_to_shaper(self):
        """Aliasing above the htb rate must not read as oversubscription."""
        sim, manager, _ = build_manager()
        core = attach_core(sim, manager, "client0", "server0",
                           bandwidth=10 * MBPS)
        core.tcal.shaping_for("server0").record(5e6)  # 100 Mb/s apparent
        samples = core.sample_usage(0.05, now=0.05)
        assert samples["server0"].rate <= 10 * MBPS * 1.05

    def test_enforce_ignores_unknown_destination(self):
        sim, manager, _ = build_manager()
        core = attach_core(sim, manager, "client0", "server0")
        core.enforce("ghost", bandwidth=1e6)  # must not raise


class TestManagerLoop:
    def test_loop_without_state_is_noop(self):
        sim = Simulator()
        driver = MediaDriver(sim, "m0")
        manager = EmulationManager(sim, "m0", driver, 0, {})
        manager.run_loop_iteration()
        assert manager.loops == 0

    def test_local_flow_enforced_to_path_share(self):
        sim, manager, _ = build_manager()
        core = attach_core(sim, manager, "client0", "server0")
        core.tcal.shaping_for("server0").record(50 * MBPS * 0.05)
        manager.run_loop_iteration()
        assert manager.enforcements == 1
        # Lone flow: full bottleneck share.
        assert core.tcal.shaping_for("server0").htb.rate == \
            pytest.approx(50 * MBPS, rel=0.01)

    def test_remote_report_shrinks_local_share(self):
        sim, manager, _ = build_manager()
        core = attach_core(sim, manager, "client0", "server0")
        # A remote manager reports an equal-RTT flow on the shared link.
        shared_links = None
        path = manager.collapsed.path("client1", "server1")
        remote = MetadataMessage(sender=1, flows=(FlowRecord(
            source_index=manager.container_indices["client1"],
            destination_index=manager.container_indices["server1"],
            used_bandwidth=25 * MBPS, link_ids=path.link_ids),))
        manager._on_message(remote)
        core.tcal.shaping_for("server0").record(50 * MBPS * 0.05)
        sim.at(0.0, manager.run_loop_iteration)
        sim.run()
        rate = core.tcal.shaping_for("server0").htb.rate
        assert rate < 40 * MBPS  # no longer the whole link

    def test_stale_remote_reports_expire(self):
        sim, manager, _ = build_manager()
        core = attach_core(sim, manager, "client0", "server0")
        path = manager.collapsed.path("client1", "server1")
        remote = MetadataMessage(sender=1, flows=(FlowRecord(
            source_index=manager.container_indices["client1"],
            destination_index=manager.container_indices["server1"],
            used_bandwidth=25 * MBPS, link_ids=path.link_ids),))
        manager._on_message(remote)
        # Local traffic keeps flowing; the remote peer goes silent.
        def tick():
            core.tcal.shaping_for("server0").record(
                core.tcal.shaping_for("server0").htb.rate * 0.05)
            manager.run_loop_iteration()
        for step in range(10):
            sim.at(step * 0.05 + 0.01, tick)
        sim.run()
        rate = core.tcal.shaping_for("server0").htb.rate
        assert rate == pytest.approx(50 * MBPS, rel=0.05)

    def test_own_messages_ignored(self):
        sim, manager, _ = build_manager()
        manager._on_message(MetadataMessage(sender=0, flows=()))
        assert manager._remote == {}

    def test_an_equal_report_leaves_its_flows_behind(self):
        """Of two equal reports, the peer keeps the second one's flows, so
        the sender's next unchanged publication is an identity test."""
        sim, manager, _ = build_manager()
        path = manager.collapsed.path("client1", "server1")

        def report():
            return MetadataMessage(sender=1, flows=(FlowRecord(
                manager.container_indices["client1"],
                manager.container_indices["server1"],
                25 * MBPS, path.link_ids),))

        first, second = report(), report()
        assert first.flows == second.flows
        assert first.flows is not second.flows
        manager._on_message(first)
        version = manager._view_version
        manager._on_message(second)
        assert manager._remote[1].flows is second.flows
        assert manager._view_version == version


class TestReportExpiry:
    @pytest.mark.parametrize("after, merged", [(0.0, True), (1e-9, False)],
                             ids=["at-3.5-periods", "just-after"])
    def test_a_report_stands_three_and_a_half_periods(self, after, merged):
        sim, manager, _ = build_manager(period=0.05)
        path = manager.collapsed.path("client1", "server1")
        manager._on_message(MetadataMessage(sender=1, flows=(FlowRecord(
            source_index=manager.container_indices["client1"],
            destination_index=manager.container_indices["server1"],
            used_bandwidth=25 * MBPS, link_ids=path.link_ids),)))
        seen = []
        sim.at(0.05 * 3.5 + after,
               lambda: seen.append(manager._merge_global_view({})))
        sim.run()
        assert (("client1", "server1") in seen[0]) is merged


# --------------------------------------------------------------------------
# The invariants the every-chain restore loop used to enforce by brute
# force, now that an iteration only visits active and throttled chains.
# --------------------------------------------------------------------------

def sharing_engine(pairs, shared, *, machines=2, events=()):
    builder = dumbbell(pairs, shared_bandwidth=shared)
    for time, event in events:
        builder.at(time, event)
    return builder.deploy(machines=machines, seed=5).compile().engine()


def netlink_calls(manager):
    return sum(core.tcal.netlink_calls for core in manager.cores.values())


class TestChangeOnlyEnforcement:
    def test_every_chain_carries_what_a_full_rewrite_would_leave(self):
        """fig8's shape — flows join and leave one shared link.  After
        every loop iteration each chain carries the (rate, loss) its
        manager last asked for, and a chain never asked for anything its
        collapsed path's bandwidth and loss — whichever iterations the
        fixed point skipped."""
        engine = sharing_engine(3, 30 * MBPS)
        engine.start_flow("a", "client0", "server0")
        engine.start_flow("b", "client1", "server1", start_time=1.0)
        engine.start_flow("c", "client2", "server2", start_time=2.0)
        engine.sim.at(3.0, engine.stop_flow, "b")
        engine.sim.at(4.0, engine.stop_flow, "a")
        engine.sim.at(5.0, engine.stop_flow, "c")

        wanted = {}

        def recording(core):
            write = core._write

            def _write(destination, bandwidth, loss):
                wanted[(core.container, destination)] = (bandwidth, loss)
                return write(destination, bandwidth, loss)
            return _write

        for core in engine.cores.values():
            core._write = recording(core)

        collapsed = engine.current_state.collapsed
        period = engine.config.loop_period
        throttled_chains = 0
        for step in range(1, int(6.0 / period)):
            engine.run(until=step * period + 1e-4)
            for container, tcal in engine.tcals.items():
                for destination in tcal.destinations():
                    shaping = tcal.shaping_for(destination)
                    properties = collapsed.path(container,
                                                destination).properties
                    expected = wanted.get(
                        (container, destination),
                        (properties.bandwidth, properties.loss))
                    assert (shaping.htb.rate, shaping.netem.loss) == \
                        expected, (step, container, destination)
                    throttled_chains += shaping.htb.rate < \
                        properties.bandwidth
        assert throttled_chains > 100       # the scenario did contend
        for manager in engine.managers.values():
            assert not manager._throttled   # and everything was given back

    def test_steady_state_costs_polls_plus_active_flows(self):
        engine = sharing_engine(4, 40 * MBPS)
        for index in range(4):
            engine.start_flow(index, f"client{index}", f"server{index}")
        engine.run(until=5.0)
        period = engine.config.loop_period
        for step in range(1, 21):
            before = {name: netlink_calls(manager)
                      for name, manager in engine.managers.items()}
            engine.run(until=5.0 + step * period + 1e-4)
            for name, manager in engine.managers.items():
                active = sum(1 for index in range(4)
                             if f"client{index}" in manager.cores)
                assert netlink_calls(manager) - before[name] <= \
                    len(manager.cores) + 2 * active

    def test_halving_the_shared_link_invalidates_the_floor_memo(self):
        from repro.scenario import set_link
        engine = sharing_engine(
            2, 40 * MBPS,
            events=[(4.0, set_link("left", "right", up=20 * MBPS))])
        engine.start_flow("a", "client0", "server0")
        engine.start_flow("b", "client1", "server1")

        def enforced():
            return sum(
                engine.tcals[f"client{index}"].shaping_for(
                    f"server{index}").htb.rate for index in range(2))

        engine.run(until=3.99)
        assert enforced() == pytest.approx(40 * MBPS, rel=0.05)
        # A floor remembered from before the swap would keep both flows
        # at 20 Mb/s: the enforced share is max(floor, maximization).
        engine.run(until=4.0 + 2 * engine.config.loop_period + 1e-4)
        assert enforced() == pytest.approx(20 * MBPS, rel=0.05)

    def test_throttled_destination_removed_by_a_state_swap(self):
        from repro.scenario import node_leave
        engine = sharing_engine(2, 40 * MBPS,
                                events=[(3.0, node_leave("server1"))])
        engine.start_flow("a", "client0", "server0")
        engine.start_flow("b", "client1", "server1")
        manager = engine.managers[engine.placement["client1"]]
        engine.run(until=2.99)
        assert ("client1", "server1") in manager._throttled
        engine.stop_flow("b")
        engine.run(until=4.0)                # must not raise
        assert ("client1", "server1") not in manager._throttled
        assert not engine.tcals["client1"].has_destination("server1")


# --------------------------------------------------------------------------
# The fixed point: an iteration skipped after the poll and the publication
# leaves, to the bit, what running it through would have left.
# --------------------------------------------------------------------------

class FullLoop(EmulationManager):
    """The loop with its fixed point, its kept records and its kept
    publication forgotten before every iteration, so each one builds its
    report afresh and merges, solves and enforces."""

    def run_loop_iteration(self):
        self._fixed_point = None
        self._records = {}
        self._message = None
        super().run_loop_iteration()


def fig8_stages(engine):
    """Fig. 8's six arrivals and reverse-order departures, 2.5 s apart."""
    stage = 2.5
    for index in range(1, 7):
        key = f"c{index}"
        engine.start_flow(key, key, f"s{index}", start_time=(index - 1) * stage)
        engine.sim.at((12 - index) * stage, engine.stop_flow, key)
    return 12 * stage


def join_and_leave(engine):
    engine.start_flow("a", "client0", "server0")
    engine.start_flow("b", "client1", "server1", start_time=1.0)
    engine.start_flow("c", "client2", "server2", start_time=2.0)
    engine.sim.at(3.0, engine.stop_flow, "b")
    engine.sim.at(4.0, engine.stop_flow, "a")
    engine.sim.at(5.0, engine.stop_flow, "c")
    return 6.0


def both_flows(engine):
    engine.start_flow("a", "client0", "server0")
    engine.start_flow("b", "client1", "server1")
    return 6.0


def silenced_peer(engine):
    """client0's manager stops looping at 2 s: its last report ages out
    at the others while its flow keeps sending."""
    for index in range(3):
        engine.start_flow(index, f"client{index}", f"server{index}")
    machines = list(engine.managers)
    process = engine._loop_processes[
        machines.index(engine.placement["client0"])]
    engine.sim.at(2.0, process.stop)
    return 4.0


_RUNS = {
    "fig8 stages": (
        lambda: throttling().deploy(machines=4, seed=91),
        fig8_stages),
    "join and leave": (
        lambda: dumbbell(3, shared_bandwidth=30 * MBPS).deploy(
            machines=2, seed=5),
        join_and_leave),
    "mid-run set_link": (
        lambda: dumbbell(2, shared_bandwidth=40 * MBPS).at(
            3.0, set_link("left", "right", up=20 * MBPS)).deploy(
            machines=2, seed=5),
        both_flows),
    "silenced peer": (
        lambda: dumbbell(3, shared_bandwidth=30 * MBPS).deploy(
            machines=3, seed=5),
        silenced_peer),
}


def observe(engine):
    """What a skipped iteration could have left differently."""
    chains = [(container, destination, shaping.htb.rate, shaping.netem.loss)
              for container, tcal in engine.tcals.items()
              for destination, shaping in tcal.chains.items()]
    managers = [(sorted(manager._link_contended), manager.enforcements)
                for manager in engine.managers.values()]
    return (chains, managers, engine.total_metadata_wire_bytes(),
            engine.sim.events_dispatched)


class TestFixedPoint:
    @pytest.mark.parametrize("run", sorted(_RUNS))
    def test_a_skipped_iteration_is_the_full_one(self, run, monkeypatch):
        scenario, drive = _RUNS[run]
        skipping = scenario().compile().engine()
        with monkeypatch.context() as patch:
            patch.setattr(engine_module, "EmulationManager", FullLoop)
            full = scenario().compile().engine()
        assert all(type(manager) is FullLoop
                   for manager in full.managers.values())
        until = drive(skipping)
        assert drive(full) == until

        merges = []
        for manager in skipping.managers.values():
            merge = manager._merge_global_view

            def counting(local, merge=merge):
                merges.append(None)
                return merge(local)
            manager._merge_global_view = counting

        period = skipping.config.loop_period
        for step in range(1, int(until / period) + 1):
            skipping.run(until=step * period + 1e-4)
            full.run(until=step * period + 1e-4)
            assert observe(skipping) == observe(full), (run, step)
        loops = sum(manager.loops for manager in skipping.managers.values())
        assert len(merges) < loops // 2     # the fixed point held, mostly

    def test_an_iteration_that_wrote_is_no_fixed_point(self):
        """A write moves the htb rate ``_estimated_demand`` reads, so the
        iteration after one runs through.  Here the peer's flow drops
        under its floor share: the local flow's share rises while nothing
        but the chain moves — contention holds, the chain stays throttled,
        the local flow polls as exactly its htb rate."""
        sim, manager, _ = build_manager()
        core = attach_core(sim, manager, "client0", "server0")
        chain = core.tcal.shaping_for("server0")
        path = manager.collapsed.path("client1", "server1")
        seen = []

        def tick(remote_rate):
            manager._on_message(MetadataMessage(sender=1, flows=(FlowRecord(
                manager.container_indices["client1"],
                manager.container_indices["server1"],
                remote_rate, path.link_ids),)))
            chain.record(chain.htb.rate)    # 20 periods' worth: clamped
            manager.run_loop_iteration()
            seen.append((chain.htb.rate, manager._fixed_point is not None))

        for step, remote_rate in enumerate([40, 40, 40, 40, 14]):
            sim.at(0.05 * (step + 1), tick, remote_rate * MBPS)
        sim.run()
        assert seen[-3:] == [(25 * MBPS, True), (25 * MBPS, True),
                             (29 * MBPS, False)]


# --------------------------------------------------------------------------
# The lazy solve: the sharing model is evaluated only where a local flow
# crosses a contended link, and an iteration that skips it leaves, to the
# bit, what evaluating it every time would have left.
# --------------------------------------------------------------------------

class EagerSolve(EmulationManager):
    """The manager with the sharing model evaluated by every ``_enforce``,
    whether or not a contended flow reads it."""

    def _enforce(self, local, flows):
        self._compute_shares(flows)
        return super()._enforce(local, flows)


def fig4_mesh():
    from repro.experiments.fig4 import point_scenario
    return point_scenario(hosts=4, connections=10, duration=0.3, seed=1)


def into_and_out_of_contention(engine):
    """Three 10 Mb/s senders over a 30 Mb/s shared link until one stops at
    3 s: the link contends, then goes quiet for good."""
    for index in range(3):
        engine.start_flow(index, f"client{index}", f"server{index}",
                          demand=10 * MBPS)
    engine.sim.at(3.0, engine.stop_flow, 0)
    return 5.0


_LAZY_RUNS = {
    "fig8 stages": _RUNS["fig8 stages"],
    "fig4 mesh": (fig4_mesh, lambda engine: 0.3),
    "into and out of contention": (
        lambda: dumbbell(3, shared_bandwidth=30 * MBPS).deploy(
            machines=2, seed=5),
        into_and_out_of_contention),
}


def prepared(scenario):
    from repro.scenario import resolve_backend
    backend = resolve_backend("kollaps")
    engine = backend.prepare(scenario.compile())
    backend.start_workloads()
    return engine


class TestLazySolve:
    @pytest.mark.parametrize("run", sorted(_LAZY_RUNS))
    def test_a_lazy_solve_is_the_eager_one(self, run, monkeypatch):
        scenario, drive = _LAZY_RUNS[run]
        lazy = prepared(scenario())
        with monkeypatch.context() as patch:
            patch.setattr(engine_module, "EmulationManager", EagerSolve)
            eager = prepared(scenario())
        assert all(type(manager) is EagerSolve
                   for manager in eager.managers.values())
        until = drive(lazy)
        assert drive(eager) == until

        contended = []
        period = lazy.config.loop_period
        for step in range(1, int(until / period) + 1):
            lazy.run(until=step * period + 1e-4)
            eager.run(until=step * period + 1e-4)
            seen = observe(lazy)
            assert seen == observe(eager), (run, step)
            contended.append(any(links for links, _ in seen[1]))
        if run == "into and out of contention":
            assert any(contended) and not contended[-1]

    def test_the_model_reads_the_chains_the_iteration_started_with(self):
        """``a`` saturates its own 10 Mb/s access link; ``b``, throttled
        earlier to 1 Mb/s, crosses nothing contended and is restored in the
        same ``_enforce``, ahead of ``a``.  Solved after that write, ``b``
        would read as under-demanding and hand ``a`` 10 Mb/s instead of its
        fair 6 Mb/s of the shared 12 Mb/s link."""
        from repro.scenario import Scenario
        topology = (Scenario.build("y").service("a").service("b")
                    .service("sv").bridge("s")
                    .link("a", "s", latency="1ms", up=10 * MBPS)
                    .link("b", "s", latency="1ms", up=100 * MBPS)
                    .link("s", "sv", latency="1ms", up=12 * MBPS)
                    ).compile().topology
        indices = {"a": 0, "b": 1, "sv": 2}
        carried = []
        for cls in (EmulationManager, EagerSolve):
            sim = Simulator()
            manager = cls(sim, "m0", MediaDriver(sim, "m0"), 0, indices)
            manager.install_state(collapse(topology),
                                  {link.link_id: link.properties.bandwidth
                                   for link in topology.links()})
            chains = {name: attach_core(sim, manager, name, "sv",
                                        bandwidth=bandwidth
                                        ).tcal.shaping_for("sv")
                      for name, bandwidth in (("b", MBPS), ("a", 10 * MBPS))}
            manager._throttled[("b", "sv")] = None
            local = {(name, "sv"): FlowRecord(
                indices[name], indices["sv"], used,
                manager.collapsed.path(name, "sv").link_ids)
                for name, used in (("b", MBPS), ("a", 9.5 * MBPS))}
            manager._enforce(local, dict(local))
            assert ("b", "sv") not in manager._throttled
            carried.append({name: chain.htb.rate
                            for name, chain in chains.items()})
        assert carried[0] == carried[1]
        assert carried[0] == {"a": pytest.approx(6 * MBPS),
                              "b": 12 * MBPS}

    def test_the_fig4_mesh_solves_nothing(self, monkeypatch):
        """No link of the mesh is ever contended, so no manager reads —
        or solves — the sharing model."""
        from repro import telemetry
        monkeypatch.delenv(telemetry.TRACE_ENV_VAR, raising=False)
        telemetry.metrics.clear()
        telemetry.enable()
        try:
            engine = prepared(fig4_mesh())
            engine.run(until=0.3)
            solves = telemetry.metrics.counter("sharing.solver_calls").value
            loops = telemetry.metrics.counter(
                "manager.loop_iterations").value
        finally:
            telemetry.disable()
            telemetry.metrics.clear()
        assert loops > 0 and solves == 0
        assert not any(manager._link_contended
                       for manager in engine.managers.values())


# --------------------------------------------------------------------------
# Batched delivery: one event hands a publication to every peer, and each
# peer sees, when and in the order it would have, what one event per peer
# would have shown it.
# --------------------------------------------------------------------------

class PerPeerDelivery(MediaDriver):
    """The driver with one delivery event per peer of a publication."""

    def publish_remote(self, message):
        for peer in self._peer_order:
            self._ship((peer,), message)


def eight_flows(engine):
    """A client per machine joins every 0.25 s over the shared link; half
    of them leave at 2.5 s."""
    for index in range(8):
        engine.start_flow(index, f"client{index}", f"server{index}",
                          start_time=index * 0.25)
    for index in range(0, 8, 2):
        engine.sim.at(2.5, engine.stop_flow, index)
    return 3.5


_DELIVERY_RUNS = {
    "fig8 stages": _RUNS["fig8 stages"],
    "fig4 mesh": _LAZY_RUNS["fig4 mesh"],
    "8-machine dumbbell": (
        lambda: dumbbell(8, shared_bandwidth=80 * MBPS).deploy(
            machines=8, seed=5),
        eight_flows),
}


def delivery_log(engine):
    """Every delivery, as (receiver, sim.now, sender, flows)."""
    log = []
    for machine, driver in engine.drivers.items():
        driver.subscribe(lambda message, machine=machine: log.append(
            (machine, engine.sim.now, message.sender, message.flows)))
    return log


def enforced(engine):
    """``observe`` without the event count, plus every driver's bytes and
    datagrams (``metadata.messages`` and ``wire_bytes`` are sums of them)."""
    chains, managers, wire_bytes, _events = observe(engine)
    return (chains, managers, wire_bytes,
            [driver.stats for driver in engine.drivers.values()])


class TestBatchedDelivery:
    @pytest.mark.parametrize("run", sorted(_DELIVERY_RUNS))
    def test_a_batched_delivery_is_the_per_peer_one(self, run, monkeypatch):
        scenario, drive = _DELIVERY_RUNS[run]
        batched = prepared(scenario())
        with monkeypatch.context() as patch:
            patch.setattr(engine_module, "MediaDriver", PerPeerDelivery)
            per_peer = prepared(scenario())
        assert all(type(driver) is PerPeerDelivery
                   for driver in per_peer.drivers.values())
        until = drive(batched)
        assert drive(per_peer) == until
        logs = delivery_log(batched), delivery_log(per_peer)

        period = batched.config.loop_period
        for step in range(1, int(until / period) + 1):
            batched.run(until=step * period + 1e-4)
            per_peer.run(until=step * period + 1e-4)
            assert enforced(batched) == enforced(per_peer), (run, step)
            assert logs[0] == logs[1], (run, step)
            # Σ(peers - 1) over the publications delivered so far.
            publications = len({(now, sender)
                                for _, now, sender, _ in logs[0]})
            assert (per_peer.sim.events_dispatched
                    - batched.sim.events_dispatched
                    == len(logs[0]) - publications), (run, step)
        assert len(logs[0]) > publications > 0
