"""Application workloads: iperf, ping, HTTP, KV store, Cassandra, SMR."""

import pytest

from repro.apps import (
    CassandraCluster,
    CurlSwarm,
    HttpServer,
    KvServer,
    MemtierClient,
    Pinger,
    SmrDeployment,
    Wrk2Client,
    YcsbClient,
)
from repro.apps.iperf import GOODPUT_FACTOR
from repro.core import EmulationEngine, EngineConfig
from repro.sim import RngRegistry, Simulator
from repro.scenario import iperf
from repro.scenario.topologies import (
    aws_mesh,
    point_to_point,
    star,
)

MBPS = 1e6


def kollaps_engine(topology, *, machines=1, sharing=True, seed=3):
    return EmulationEngine(topology, config=EngineConfig(
        machines=machines, seed=seed, enforce_bandwidth_sharing=sharing))


def run_iperf(bandwidth, backend, *, seed, duration, **options):
    """One ``iperf`` workload from client to server, run to its end."""
    run = (point_to_point(bandwidth)
           .workload(iperf("client", "server", duration=duration,
                           key="i", **options))
           .deploy(machines=1, seed=seed, duration=duration)
           .compile().run(backend=backend))
    return run["i"]


class TestIperf:
    def test_goodput_below_wire_rate(self):
        result = run_iperf(100 * MBPS, "baremetal", seed=1, duration=10.0)
        assert result.mean_goodput == \
            pytest.approx(result.mean_wire_rate * GOODPUT_FACTOR)

    def test_table2_style_accuracy(self):
        """Goodput lands ~4-5 % under the provisioned rate, like Table 2."""
        result = run_iperf(100 * MBPS, "kollaps", seed=3, duration=10.0)
        error = result.relative_error(100 * MBPS)
        assert -0.09 < error < 0.0

    def test_udp_mode(self):
        result = run_iperf(10 * MBPS, "baremetal", seed=1, duration=5.0,
                           protocol="udp", rate=5 * MBPS)
        assert result.mean_wire_rate == pytest.approx(5 * MBPS, rel=0.02)


class TestPing:
    def test_rtt_matches_collapsed_path(self):
        engine = kollaps_engine(
            point_to_point(1e9, latency=0.025).compile().topology,
            sharing=False)
        pinger = Pinger(engine.sim, engine.dataplane, "client", "server",
                        count=50, interval=0.005).start()
        engine.run(until=5.0)
        assert pinger.stats.received == 50
        assert pinger.stats.mean_rtt == pytest.approx(0.050, rel=0.02)

    def test_jitter_measured(self):
        engine = kollaps_engine(
            point_to_point(1e9, latency=0.050,
                           jitter=0.002).compile().topology,
            sharing=False)
        pinger = Pinger(engine.sim, engine.dataplane, "client", "server",
                        count=2000, interval=0.002).start()
        engine.run(until=10.0)
        # Jitter rides both directions: RTT sigma = sqrt(2) * end-to-end.
        assert pinger.stats.jitter == pytest.approx(0.002 * 2 ** 0.5,
                                                    rel=0.20)

    def test_loss_counted(self):
        engine = kollaps_engine(
            point_to_point(1e9, latency=0.010, loss=0.2).compile().topology,
            sharing=False, seed=5)
        pinger = Pinger(engine.sim, engine.dataplane, "client", "server",
                        count=1000, interval=0.002).start()
        engine.run(until=10.0)
        assert pinger.stats.lost > 0
        # ``loss`` is end-to-end per direction (20 %); the echo must survive
        # both directions: 1 - 0.8^2 = 36 %.
        assert pinger.stats.loss_rate == pytest.approx(0.36, abs=0.06)


class TestHttp:
    def test_wrk2_keepalive_throughput(self):
        engine = kollaps_engine(
            point_to_point(100 * MBPS, latency=0.010).compile().topology)
        server = HttpServer(engine.sim, engine.dataplane, "server")
        client = Wrk2Client(engine.sim, engine.dataplane, "client", server,
                            connections=20)
        engine.run(until=10.0)
        assert client.stats.completed > 100
        assert server.operations >= client.stats.completed

    def test_curl_slower_than_keepalive_per_request(self):
        """Fresh connections pay handshake + slow start every time."""
        def mean_latency(client_class, **kwargs):
            engine = kollaps_engine(
                point_to_point(100 * MBPS, latency=0.010).compile().topology)
            server = HttpServer(engine.sim, engine.dataplane, "server")
            if client_class is Wrk2Client:
                client = Wrk2Client(engine.sim, engine.dataplane, "client",
                                    server, connections=1)
            else:
                client = CurlSwarm(engine.sim, engine.dataplane, ["client"],
                                   server)
            engine.run(until=10.0)
            stats = client.stats
            return sum(stats.latencies) / len(stats.latencies)

        assert mean_latency(CurlSwarm) > mean_latency(Wrk2Client) * 1.5

    def test_curl_scales_with_clients(self):
        """Figure 6: more curl clients, proportionally more throughput."""
        def throughput(client_count):
            topology = star(
                ["server"] + [f"c{i}" for i in range(client_count)],
                bandwidth=100 * MBPS, latency=0.005).compile().topology
            engine = kollaps_engine(topology)
            server = HttpServer(engine.sim, engine.dataplane, "server")
            swarm = CurlSwarm(engine.sim, engine.dataplane,
                              [f"c{i}" for i in range(client_count)], server)
            engine.run(until=10.0)
            return swarm.stats.bits_per_s(10.0)

        one = throughput(1)
        four = throughput(4)
        assert four == pytest.approx(4 * one, rel=0.25)

    def test_curl_packet_kinds_are_per_run(self):
        """The server numbers its own connections: a second swarm in the
        same process tags its packets as a fresh process would, so a
        full-state switch sees the same flows whatever ran before."""
        def kinds():
            engine = kollaps_engine(
                point_to_point(100 * MBPS, latency=0.010).compile().topology)
            plane = KindsPlane(engine.dataplane)
            CurlSwarm(engine.sim, plane, ["client"],
                      HttpServer(engine.sim, plane, "server"))
            engine.run(until=1.0)
            return plane.kinds

        first = kinds()
        assert first[:2] == ["syn:0", "syn:0"]
        assert kinds() == first

    def test_wrk2_connections_must_not_be_negative(self):
        sim = Simulator()
        server = HttpServer(sim, CapturePlane(), "server")
        with pytest.raises(ValueError, match="connections"):
            Wrk2Client(sim, CapturePlane(), "client", server, connections=-3)


class TestKvStore:
    def test_memtier_closed_loop(self):
        engine = kollaps_engine(
            point_to_point(1e9, latency=0.002).compile().topology,
            sharing=False)
        server = KvServer(engine.sim, engine.dataplane, "server")
        client = MemtierClient(engine.sim, engine.dataplane, "client", server,
                               connections=4,
                               rng=RngRegistry(7).stream("memtier"))
        engine.run(until=5.0)
        # 4 connections, ~4 ms RTT + service: ~1000 ops/s/conn.
        assert client.stats.completed > 2000
        assert server.operations >= client.stats.completed

    def test_latency_dominated_by_rtt(self):
        engine = kollaps_engine(
            point_to_point(1e9, latency=0.040).compile().topology,
            sharing=False)
        server = KvServer(engine.sim, engine.dataplane, "server")
        client = MemtierClient(engine.sim, engine.dataplane, "client", server,
                               connections=1,
                               rng=RngRegistry(7).stream("memtier"))
        engine.run(until=5.0)
        mean = sum(client.stats.latencies) / len(client.stats.latencies)
        assert mean == pytest.approx(0.080, rel=0.05)

    def test_sets_update_store(self):
        engine = kollaps_engine(point_to_point(1e9).compile().topology,
                                sharing=False)
        server = KvServer(engine.sim, engine.dataplane, "server")
        MemtierClient(engine.sim, engine.dataplane, "client", server,
                      connections=1, set_fraction=1.0,
                      rng=RngRegistry(7).stream("memtier"))
        engine.run(until=1.0)
        assert len(server.store) > 0


class CapturePlane:
    """A plane that keeps what it is handed and delivers nothing."""

    def __init__(self):
        self.sent = []

    def send(self, packet, deliver, on_drop=None, on_backpressure=None):
        self.sent.append(packet)


class KindsPlane:
    """``plane``, noting the kind of every packet sent through it."""

    def __init__(self, plane):
        self.plane = plane
        self.kinds = []

    def send(self, packet, deliver, on_drop=None, on_backpressure=None):
        self.kinds.append(packet.kind)
        self.plane.send(packet, deliver, on_drop, on_backpressure)


class TestMemtierClient:
    def client(self, **options):
        sim = Simulator()
        plane = CapturePlane()
        server = KvServer(sim, plane, "server")
        options.setdefault("rng", RngRegistry(11).stream("memtier"))
        return MemtierClient(sim, plane, "client", server, **options), plane

    @pytest.mark.parametrize("keyspace", [1, 2, 1000, 1024, 1025])
    def test_key_draw_is_randrange(self, keyspace):
        client, plane = self.client(connections=0, keyspace=keyspace,
                                    set_fraction=0.3,
                                    rng=RngRegistry(11).stream("memtier"))
        reference = RngRegistry(11).stream("memtier")
        expected = []
        for _ in range(10_000):
            client._issue()
            is_set = reference.random() < 0.3
            expected.append(("set" if is_set else "get",
                             f"key-{reference.randrange(keyspace)}"))
        assert [packet.payload for packet in plane.sent] == expected
        assert client.rng.getstate() == reference.getstate()

    def test_clients_share_their_key_strings(self):
        first, _ = self.client(keyspace=1000)
        second, _ = self.client(keyspace=1000)
        assert first._keys is second._keys

    @pytest.mark.parametrize("keyspace", [0, -3, 2.5, True, "10"])
    def test_keyspace_must_be_a_positive_int(self, keyspace):
        with pytest.raises(ValueError, match="keyspace"):
            self.client(keyspace=keyspace)

    @pytest.mark.parametrize("fraction", [-0.1, 1.5, float("nan")])
    def test_set_fraction_must_be_in_unit_interval(self, fraction):
        with pytest.raises(ValueError, match="set_fraction"):
            self.client(set_fraction=fraction)

    def test_connections_must_not_be_negative(self):
        with pytest.raises(ValueError, match="connections"):
            self.client(connections=-1)


class TestCassandra:
    def geo_engine(self):
        topology = aws_mesh(["frankfurt", "sydney"], 5,
                            service_prefix="cas").compile().topology
        return kollaps_engine(topology, machines=2, sharing=False)

    def replicas(self):
        return [f"cas-{region}-{index}" for index in range(4)
                for region in ("frankfurt", "sydney")]

    def test_quorum_write_waits_for_remote_region(self):
        engine = self.geo_engine()
        cluster = CassandraCluster(engine.sim, engine.dataplane,
                                   self.replicas(), replication_factor=2,
                                   write_consistency=2)
        client = YcsbClient(engine.sim, engine.dataplane, "cas-frankfurt-4",
                            cluster, "cas-frankfurt-0", threads=2,
                            read_fraction=0.0,
                            rng=RngRegistry(8).stream("ycsb"))
        engine.run(until=20.0)
        mean_update = (sum(client.updates.latencies) /
                       len(client.updates.latencies))
        # Frankfurt <-> Sydney RTT is 290 ms; replica sets interleave the
        # regions, so every quorum write crosses the ocean.
        assert mean_update > 0.250

    def test_read_one_stays_local(self):
        engine = self.geo_engine()
        cluster = CassandraCluster(engine.sim, engine.dataplane,
                                   self.replicas(), replication_factor=2,
                                   read_consistency=1)
        client = YcsbClient(engine.sim, engine.dataplane, "cas-frankfurt-4",
                            cluster, "cas-frankfurt-0", threads=2,
                            read_fraction=1.0,
                            rng=RngRegistry(8).stream("ycsb"))
        engine.run(until=20.0)
        mean_read = (sum(client.reads.latencies) /
                     len(client.reads.latencies))
        assert mean_read < 0.100

    def test_replica_placement_ring(self):
        engine = self.geo_engine()
        cluster = CassandraCluster(engine.sim, engine.dataplane,
                                   self.replicas(), replication_factor=2)
        owners = cluster.replicas_for(3)
        assert len(owners) == 2
        assert owners[0] != owners[1]

    def test_invalid_consistency_rejected(self):
        engine = self.geo_engine()
        with pytest.raises(ValueError):
            CassandraCluster(engine.sim, engine.dataplane, self.replicas(),
                             replication_factor=2, write_consistency=3)

    def test_zero_consistency_rejected(self):
        with pytest.raises(ValueError, match="at least 1"):
            CassandraCluster(Simulator(), CapturePlane(), self.replicas(),
                             replication_factor=2, write_consistency=0)

    def ycsb(self, **options):
        sim, plane = Simulator(), CapturePlane()
        cluster = CassandraCluster(sim, plane, self.replicas())
        return YcsbClient(sim, plane, "cas-frankfurt-4", cluster,
                          "cas-frankfurt-0", rng=RngRegistry(8).stream("y"),
                          **options)

    @pytest.mark.parametrize("keyspace", [0, -1, 2.5, True])
    def test_ycsb_keyspace_must_be_a_positive_int(self, keyspace):
        with pytest.raises(ValueError, match="keyspace"):
            self.ycsb(keyspace=keyspace)

    @pytest.mark.parametrize("fraction", [-0.5, 2.0, float("nan")])
    def test_ycsb_read_fraction_must_be_in_unit_interval(self, fraction):
        with pytest.raises(ValueError, match="read_fraction"):
            self.ycsb(read_fraction=fraction)

    def test_ycsb_threads_must_not_be_negative(self):
        with pytest.raises(ValueError, match="threads"):
            self.ycsb(threads=-1)


class TestSmr:
    def deployment(self, protocol):
        regions = ["virginia", "oregon", "ireland", "saopaulo", "sydney"]
        topology = aws_mesh(regions, 2, service_prefix="n").compile().topology
        engine = kollaps_engine(topology, machines=5, sharing=False)
        replicas = [f"n-{region}-0" for region in regions]
        smr = SmrDeployment(engine.sim, engine.dataplane, replicas,
                            protocol=protocol)
        return engine, smr, regions

    def test_bftsmart_latency_ordering(self):
        """Clients co-located with the leader see the lowest latency."""
        engine, smr, regions = self.deployment("bftsmart")
        stats = {region: smr.run_client(f"n-{region}-1", operations=30)
                 for region in regions}
        engine.run(until=120.0)
        assert all(len(stats[region].latencies) == 30 for region in regions)
        assert stats["virginia"].percentile(0.5) < \
            stats["sydney"].percentile(0.5)

    def test_wheat_faster_than_bftsmart(self):
        """Wheat's weighted quorums cut ordering latency (Figure 9)."""
        results = {}
        for protocol in ("bftsmart", "wheat"):
            engine, smr, regions = self.deployment(protocol)
            stats = smr.run_client("n-ireland-1", operations=30)
            engine.run(until=120.0)
            results[protocol] = stats.percentile(0.5)
        assert results["wheat"] < results["bftsmart"]

    def test_unknown_protocol_rejected(self):
        engine, smr, _ = self.deployment("bftsmart")
        with pytest.raises(ValueError):
            SmrDeployment(engine.sim, engine.dataplane, ["a"], protocol="pbft")

    @pytest.mark.parametrize("operations", [-1, 2.5])
    def test_operations_must_be_a_non_negative_int(self, operations):
        smr = SmrDeployment(Simulator(), CapturePlane(), ["a"])
        with pytest.raises(ValueError, match="operations"):
            smr.run_client("client", operations=operations)
