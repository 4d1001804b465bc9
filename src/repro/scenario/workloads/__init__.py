"""Declarative workload specs attached to a :class:`Scenario`.

A workload is *what runs on the emulated network*: bulk flows, iperf
measurements, ping probes, HTTP load generators and the paper's
request/response applications (memcached with memtier, BFT-SMaRt and
Wheat, Cassandra with YCSB).  Specs are plain data
until an :class:`~repro.scenario.backends.ExecutionBackend` installs them
on a live system; afterwards each spec collects its own result and a
backend-independent :class:`~repro.scenario.results.Metrics` record, so a
scenario run returns application measurements (the paper's "what
unmodified applications observe") without any hand-rolled engine plumbing
at the call site.

Each spec declares the data ``planes`` it needs (``"bulk"`` for fluid
flows, ``"packet"`` for per-packet applications); backends check those
declarations against their capabilities before anything runs.

This package holds the :class:`Workload` base; each kind — its spec class
and helper — lives in a module of its own and loads the first time one
of its names is used, so a run that pings loads the ``ping`` kind alone.
The ``.scn`` schema (:mod:`repro.scenario.dsl.schema`) reads every kind.
"""

from __future__ import annotations

from typing import Hashable, Mapping, Optional, Tuple, Union

from repro._lazy import lazy_exports
from repro.scenario.results import Metrics, series_summary

__all__ = ["Workload", "FlowWorkload", "IperfWorkload", "PingWorkload",
           "HttpLoadWorkload", "CurlSwarmWorkload", "MemtierWorkload",
           "SmrWorkload", "YcsbWorkload", "CustomWorkload",
           "flow", "iperf", "ping", "udp_blast", "http_load", "curl_swarm",
           "custom"]

# One module per kind, named apart from its helper: a submodule's import
# binds its name on this package, which must stay the helper.
_LAZY = {
    "_flow": ("FlowWorkload", "flow", "udp_blast"),
    "_iperf": ("IperfWorkload", "iperf"),
    "_ping": ("PingWorkload", "ping"),
    "_http": ("HttpLoadWorkload", "http_load"),
    "_curl": ("CurlSwarmWorkload", "curl_swarm"),
    "_memtier": ("MemtierWorkload",),
    "_smr": ("SmrWorkload",),
    "_ycsb": ("YcsbWorkload",),
    "_custom": ("CustomWorkload", "custom"),
}
__getattr__, __dir__ = lazy_exports(globals(), _LAZY)

Number = Union[str, float, int]


def _throughput_summary(series, mean: float, *,
                        workload: Optional[Hashable] = None) -> dict:
    # An empty series (a flow that never got a sample) still has its mean;
    # series_summary itself refuses empty input, loudly.
    summary = {}
    if series:
        summary = {f"throughput_{name}": value
                   for name, value
                   in series_summary(series, workload=workload).items()
                   if name in ("min", "max")}
    summary["throughput_mean"] = mean
    return summary


class Workload:
    """Base: ``install`` before the run, ``collect``/``metrics`` after it."""

    key: Hashable
    kind: str = "custom"
    #: Data planes this workload needs; backends validate against these.
    planes: frozenset = frozenset()
    #: The fields that name containers: a name, a sequence of names or of
    #: name pairs.  The scenario's rule book checks every one.
    endpoints: Tuple[str, ...] = ()

    def containers(self) -> Tuple[str, ...]:
        """Every container this workload names, field by field."""
        names = []
        for field in self.endpoints:
            value = getattr(self, field)
            for item in (value,) if isinstance(value, str) else value:
                names.extend((item,) if isinstance(item, str) else item)
        return tuple(names)

    def install(self, engine) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def collect(self, engine, until: float):  # pragma: no cover - interface
        raise NotImplementedError

    def metrics(self, engine, until: float, result) -> Metrics:
        """A backend-independent record built from the collected result.

        A number is the ``value`` statistic; a mapping of numbers *is* the
        summary (an explicit ``"value"``, else its first key, is the
        headline).  Other non-numeric results (tuples, stats objects, ...)
        get an *empty* summary rather than a fabricated 0.0, so
        comparisons skip them instead of reporting a fake zero deviation.
        """
        primary = "value"
        try:
            if isinstance(result, Mapping):
                summary = {str(name): float(value)
                           for name, value in result.items()}
                if "value" not in summary:
                    primary = next(iter(summary), "value")
            else:
                summary = {"value": float(result)}
        except (TypeError, ValueError):
            summary = {}
        return Metrics(key=self.key, kind=self.kind,
                       summary=summary, primary=primary)

    # Per-engine workload state (a pinger, a client, custom install state):
    # stashed on the live system so collect() finds its own even when the
    # same spec runs twice on different engines.
    def _stash(self, engine, state) -> None:
        engine.__dict__.setdefault("_workload_state", {})[self.key] = state

    def _stashed(self, engine):
        return engine._workload_state[self.key]

    def horizon(self) -> float:
        """Latest time this workload needs the run to reach (0 = open)."""
        return 0.0
