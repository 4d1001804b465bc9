"""Application workloads used by the paper's evaluation.

All applications are written against the data-plane protocol only — they
run unmodified on the Kollaps plane, the bare-metal network or any baseline
emulator, mirroring the paper's "unmodified off-the-shelf application"
property.

* :mod:`repro.apps.iperf` — bulk TCP/UDP throughput measurement (§5.1–5.4),
* :mod:`repro.apps.ping` — ICMP echo RTT/jitter probes (§5.1, §5.5),
* :mod:`repro.apps.http` — an HTTP server with wrk2-like (keep-alive) and
  curl-like (connection-per-request) clients (§5.3),
* :mod:`repro.apps.kvstore` — memcached server + memtier-like client (§5.2),
* :mod:`repro.apps.cassandra` — quorum-replicated wide-column store +
  YCSB-like workload driver (§5.6),
* :mod:`repro.apps.smr` — BFT-SMaRt and Wheat state-machine replication
  message patterns (§5.6),
* :mod:`repro.apps.udpgen` — a constant-bit-rate UDP blaster that never
  backs off (§3's loss-insensitive traffic).
"""

from repro._lazy import lazy_exports

_LAZY = {
    "iperf": ("IperfResult", "run_iperf_pair"),
    "ping": ("PingStats", "Pinger"),
    "http": ("CurlSwarm", "HttpServer", "Wrk2Client"),
    "kvstore": ("KvServer", "MemtierClient"),
    "cassandra": ("CassandraCluster", "YcsbClient"),
    "smr": ("SmrDeployment",),
    "udpgen": ("UdpBlaster", "UdpStats"),
}
__getattr__, __dir__ = lazy_exports(globals(), _LAZY)

__all__ = [
    "run_iperf_pair",
    "IperfResult",
    "Pinger",
    "PingStats",
    "HttpServer",
    "Wrk2Client",
    "CurlSwarm",
    "KvServer",
    "MemtierClient",
    "CassandraCluster",
    "YcsbClient",
    "SmrDeployment",
    "UdpBlaster",
    "UdpStats",
]
