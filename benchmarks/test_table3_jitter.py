"""Table 3 — jitter-shaping accuracy against measured AWS inter-region links.

Paper: for each of 12 regions (from us-east-1), a link is configured with
the measured EC2 latency and jitter; 10 000 pings then measure the emulated
jitter.  Kollaps tracks the configured values closely (their overall MSE
between observed and emulated jitter is 0.2029 ms^2, emulated slightly
above measured due to container networking noise).
"""

from conftest import reproduce
from repro.experiments import table3


def test_table3_jitter_accuracy(benchmark):
    reproduce(benchmark, table3).assert_all()
