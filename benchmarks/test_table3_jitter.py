"""Table 3 — jitter-shaping accuracy against measured AWS inter-region links.

Paper: for each of 12 regions (from us-east-1), a link is configured with
the measured EC2 latency and jitter; 10 000 pings then measure the emulated
jitter.  Kollaps tracks the configured values closely (their overall MSE
between observed and emulated jitter is 0.2029 ms^2, emulated slightly
above measured due to container networking noise).
"""

import pytest

from conftest import reproduce


@pytest.mark.experiment("table3")
def test_table3_jitter_accuracy(sweep):
    reproduce(sweep).assert_all()
