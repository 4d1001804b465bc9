"""Figure 6 — connection-per-request HTTP: Mininet collapses under load.

Paper: an HTTP server behind a 100 Mb/s link serves 1/2/4/8 concurrent
curl clients (~64 KB per request, fresh TCP connection every time).
Bare metal and Kollaps scale near-linearly with client count; Mininet's
throughput falls behind as its switches buckle under per-connection state.
"""

import pytest

from conftest import reproduce


@pytest.mark.experiment("fig6")
def test_fig6_curl_clients(sweep):
    reproduce(sweep).assert_all()
