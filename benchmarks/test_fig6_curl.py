"""Figure 6 — connection-per-request HTTP: Mininet collapses under load.

Paper: an HTTP server behind a 100 Mb/s link serves 1/2/4/8 concurrent
curl clients (~64 KB per request, fresh TCP connection every time).
Bare metal and Kollaps scale near-linearly with client count; Mininet's
throughput falls behind as its switches buckle under per-connection state.
"""

from conftest import reproduce
from repro.experiments import fig6


def test_fig6_curl_clients(benchmark):
    reproduce(benchmark, fig6).assert_all()
