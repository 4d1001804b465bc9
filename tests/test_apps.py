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
    run_iperf_pair,
)
from repro.apps.iperf import GOODPUT_FACTOR
from repro.baselines import BareMetalTestbed
from repro.core import EmulationEngine, EngineConfig
from repro.sim import RngRegistry
from repro.scenario.topologies import (
    aws_mesh,
    point_to_point,
    star,
)

MBPS = 1e6


def kollaps_engine(topology, *, machines=1, sharing=True, seed=3):
    return EmulationEngine(topology, config=EngineConfig(
        machines=machines, seed=seed, enforce_bandwidth_sharing=sharing))


class TestIperf:
    def test_goodput_below_wire_rate(self):
        testbed = BareMetalTestbed(
            point_to_point(100 * MBPS).compile().topology, seed=1)
        result = run_iperf_pair(testbed, "client", "server", duration=10.0)
        assert result.mean_goodput == \
            pytest.approx(result.mean_wire_rate * GOODPUT_FACTOR)

    def test_table2_style_accuracy(self):
        """Goodput lands ~4-5 % under the provisioned rate, like Table 2."""
        engine = kollaps_engine(point_to_point(100 * MBPS).compile().topology)
        result = run_iperf_pair(engine, "client", "server", duration=10.0)
        error = result.relative_error(100 * MBPS)
        assert -0.09 < error < 0.0

    def test_udp_mode(self):
        testbed = BareMetalTestbed(
            point_to_point(10 * MBPS).compile().topology, seed=1)
        result = run_iperf_pair(testbed, "client", "server", duration=5.0,
                                protocol="udp", demand=5 * MBPS)
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
        assert server.requests_served >= client.stats.completed

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
            return swarm.stats.throughput(10.0)

        one = throughput(1)
        four = throughput(4)
        assert four == pytest.approx(4 * one, rel=0.25)


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
        mean_update = (sum(client.stats.update_latencies) /
                       len(client.stats.update_latencies))
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
        mean_read = (sum(client.stats.read_latencies) /
                     len(client.stats.read_latencies))
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


class TestSmr:
    def deployment(self, protocol):
        regions = ["virginia", "oregon", "ireland", "saopaulo", "sydney"]
        topology = aws_mesh(regions, 2, service_prefix="n").compile().topology
        engine = kollaps_engine(topology, machines=5, sharing=False)
        replicas = [f"n-{region}-0" for region in regions]
        smr = SmrDeployment(engine.sim, engine.dataplane, replicas,
                            protocol=protocol, leader="n-virginia-0")
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
