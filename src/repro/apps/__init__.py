"""Application workloads used by the paper's evaluation.

Every application talks to the data-plane protocol only, so it runs
unmodified on the Kollaps plane, the bare-metal network or any baseline
emulator — the paper's "unmodified off-the-shelf application" property.

The request/response applications are message patterns over one
substrate, :mod:`repro.apps.rpc`: a FIFO server, a closed-loop client, a
latency record and a quorum.

* :mod:`repro.apps.kvstore` — memcached server + memtier client (§5.2);
* :mod:`repro.apps.http` — an HTTP server with wrk2 (keep-alive) and curl
  (connection-per-request) clients (§5.3);
* :mod:`repro.apps.smr` — BFT-SMaRt and Wheat replication (§5.6);
* :mod:`repro.apps.cassandra` — a quorum-replicated store + YCSB (§5.6).

The rest measure the network itself:

* :mod:`repro.apps.iperf` — bulk TCP/UDP throughput (§5.1–5.4);
* :mod:`repro.apps.ping` — ICMP echo RTT/jitter probes (§5.1, §5.5).
"""

from repro._lazy import lazy_exports

_LAZY = {
    "iperf": ("IperfResult",),
    "ping": ("PingStats", "Pinger"),
    "http": ("CurlSwarm", "HttpServer", "Wrk2Client"),
    "kvstore": ("KvServer", "MemtierClient"),
    "cassandra": ("CassandraCluster", "YcsbClient"),
    "smr": ("SmrDeployment",),
}
__getattr__, __dir__ = lazy_exports(globals(), _LAZY)

__all__ = [
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
]
