"""The unified results API: what every backend's run hands back.

Whatever system executed a scenario — the Kollaps engine or any of the
§5 baselines — the caller receives one :class:`ScenarioRun` carrying a
:class:`Metrics` record per workload: throughput/latency series, drop
counts and summary statistics, all in SI base units.  Runs from different
backends compare with :meth:`ScenarioRun.compare`, which is how the
cross-system experiments (Figures 5-7, Tables 2 and 4) measure deviation
from bare metal, and export with :meth:`ScenarioRun.to_dict` /
:meth:`ScenarioRun.to_csv`.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterator, List, Mapping, Optional, Tuple

__all__ = ["Metrics", "ScenarioRun", "RunComparison", "WorkloadDelta",
           "series_summary"]

Series = Tuple[Tuple[float, float], ...]


def _unknown_key(what: str, key, available, where: str) -> KeyError:
    """The lookup-miss error every results container raises: name the miss
    AND list what exists, so the caller never has to guess keys."""
    names = ", ".join(sorted(str(item) for item in available)) or "none"
    return KeyError(f"no {what} {key!r} in this {where}; "
                    f"available {what} keys: {names}")


def series_summary(series: Series, *,
                   workload: Optional[Hashable] = None) -> Dict[str, float]:
    """Mean/min/max over the values of a ``(time, value)`` series.

    An empty series has no summary: passing one raises a
    :class:`ValueError` naming the workload (when given), so the failure
    points at the measurement that produced nothing instead of surfacing
    as a bare ``min()/max()`` error deep in a caller.
    """
    values = [value for _time, value in series]
    if not values:
        where = (f"workload {workload!r}" if workload is not None
                 else "an unnamed workload")
        raise ValueError(
            f"cannot summarise an empty series for {where}: "
            "the run collected no samples (did the workload ever start, "
            "and did the run reach its horizon?)")
    return {"mean": sum(values) / len(values),
            "min": min(values), "max": max(values),
            "samples": float(len(values))}


@dataclass(frozen=True)
class Metrics:
    """One workload's measurements, backend-independent.

    ``summary`` holds the scalar statistics (``throughput_mean``,
    ``latency_mean``, ``loss_rate``, ...); ``primary`` names the headline
    statistic comparisons use (throughput for flows, latency for probes).
    """

    key: Hashable
    kind: str                        # "flow" | "iperf" | "ping" | "http" | ...
    throughput: Series = ()          # (time s, bits/s) samples
    latency: Series = ()             # (time s, round-trip s) samples
    drops: int = 0
    summary: Mapping[str, float] = field(default_factory=dict)
    primary: str = "throughput_mean"

    @property
    def value(self) -> float:
        """The headline statistic (what :meth:`ScenarioRun.compare` uses)."""
        return float(self.summary.get(self.primary, 0.0))

    def stat(self, name: str) -> float:
        try:
            return float(self.summary[name])
        except KeyError:
            raise _unknown_key("statistic", name, self.summary,
                              f"workload {self.key!r}") from None

    def mean_throughput(self, start: float = 0.0,
                        end: float = float("inf")) -> float:
        """Average of the throughput samples in [start, end) — the fluid
        plane's own window mean, recomputed from the stored series."""
        samples = [rate for time, rate in self.throughput
                   if start <= time < end]
        return sum(samples) / len(samples) if samples else 0.0

    def to_dict(self) -> Dict[str, object]:
        return {"key": str(self.key), "kind": self.kind,
                "primary": self.primary, "drops": self.drops,
                "summary": dict(self.summary),
                "throughput": [list(sample) for sample in self.throughput],
                "latency": [list(sample) for sample in self.latency]}

    @classmethod
    def from_dict(cls, data: Mapping) -> "Metrics":
        """Rebuild a record exported by :meth:`to_dict` (JSON round-trip).

        Keys come back as strings (``to_dict`` stringifies them), which is
        what campaign stores and cross-process runs operate on.
        """
        return cls(key=data["key"], kind=data.get("kind", "custom"),
                   throughput=tuple((float(time), float(value))
                                    for time, value
                                    in data.get("throughput", ())),
                   latency=tuple((float(time), float(value))
                                 for time, value in data.get("latency", ())),
                   drops=int(data.get("drops", 0)),
                   summary=dict(data.get("summary", {})),
                   primary=data.get("primary", "throughput_mean"))


@dataclass(frozen=True)
class WorkloadDelta:
    """One workload's headline statistic on two backends, side by side."""

    key: Hashable
    metric: str
    baseline: float
    other: float

    @property
    def delta(self) -> float:
        return self.other - self.baseline

    @property
    def relative(self) -> float:
        """(other - baseline) / baseline; 0 when both are zero."""
        if self.baseline == 0.0:
            return 0.0 if self.other == 0.0 else float("inf")
        return self.other / self.baseline - 1.0

    @property
    def deviation(self) -> float:
        """|relative| — the paper's 'deviation from bare metal' metric."""
        return abs(self.relative)


@dataclass(frozen=True)
class RunComparison:
    """Side-by-side deltas between two runs of the same scenario."""

    baseline_backend: str
    other_backend: str
    deltas: Tuple[WorkloadDelta, ...]

    def __iter__(self) -> Iterator[WorkloadDelta]:
        return iter(self.deltas)

    def __getitem__(self, key: Hashable) -> WorkloadDelta:
        for delta in self.deltas:
            if delta.key == key:
                return delta
        raise _unknown_key("workload", key,
                           [delta.key for delta in self.deltas],
                           "comparison")

    def deviation(self, key: Hashable) -> float:
        """|relative delta| of one workload's headline statistic."""
        return self[key].deviation

    def to_dict(self) -> Dict[str, object]:
        return {"baseline": self.baseline_backend,
                "other": self.other_backend,
                "workloads": {str(delta.key): {
                    "metric": delta.metric,
                    "baseline": delta.baseline,
                    "other": delta.other,
                    "delta": delta.delta,
                    "relative": delta.relative}
                    for delta in self.deltas}}

    def __str__(self) -> str:
        lines = [f"{self.baseline_backend} vs {self.other_backend}"]
        for delta in self.deltas:
            lines.append(f"  {delta.key}: {delta.baseline:g} -> "
                         f"{delta.other:g} ({delta.relative:+.2%})")
        return "\n".join(lines)


@dataclass(frozen=True)
class ScenarioRun:
    """Outcome of one :meth:`CompiledScenario.run` on some backend.

    ``seed``, ``machines`` and ``params`` are run provenance: the
    effective RNG seed and cluster size the executing backend saw, plus
    the campaign grid parameters (empty outside a campaign).  They travel
    through :meth:`to_dict` so any exported run is attributable.
    """

    engine: object                       # the live system, fully run
    until: float
    results: Dict[Hashable, object]      # workload key -> collected result
    backend: str = "kollaps"
    scenario: str = ""
    metrics: Dict[Hashable, Metrics] = field(default_factory=dict)
    seed: Optional[int] = None
    machines: Optional[int] = None
    params: Mapping[str, object] = field(default_factory=dict)

    def _lookup(self, table: Mapping, key: Hashable):
        """``table[key]``, falling back to ``str(key)``: a run rebuilt by
        :meth:`from_dict` has its keys stringified, and the same lookup
        must work on both sides of the round trip."""
        for candidate in (key, str(key)):
            if candidate in table:
                return table[candidate]
        raise _unknown_key("workload", key, self.results, "run")

    def __getitem__(self, key: Hashable):
        return self._lookup(self.results, key)

    def __contains__(self, key: Hashable) -> bool:
        return key in self.results or str(key) in self.results

    def keys(self) -> List[Hashable]:
        return list(self.results)

    def metric(self, key: Hashable) -> Metrics:
        return self._lookup(self.metrics, key)

    # ----------------------------------------------------------- comparison
    def compare(self, other: "ScenarioRun") -> RunComparison:
        """Per-workload deltas against another run of the same scenario.

        ``self`` is the baseline (deviations are relative to it); only
        workloads present in both runs *with* a headline statistic are
        compared (a custom workload returning non-numeric data has none).
        """
        deltas = []
        for key, metrics in self.metrics.items():
            other_metrics = other.metrics.get(key)
            if other_metrics is None:
                continue
            if metrics.primary not in metrics.summary or \
                    other_metrics.primary not in other_metrics.summary:
                continue
            deltas.append(WorkloadDelta(
                key=key, metric=metrics.primary,
                baseline=metrics.value, other=other_metrics.value))
        return RunComparison(baseline_backend=self.backend,
                             other_backend=other.backend,
                             deltas=tuple(deltas))

    # --------------------------------------------------------------- export
    def to_dict(self) -> Dict[str, object]:
        return {"scenario": self.scenario, "backend": self.backend,
                "until": self.until,
                "seed": self.seed, "machines": self.machines,
                "params": dict(self.params),
                "workloads": {str(key): metrics.to_dict()
                              for key, metrics in self.metrics.items()}}

    @classmethod
    def from_dict(cls, data: Mapping) -> "ScenarioRun":
        """Rebuild a run exported by :meth:`to_dict` (JSON round-trip).

        Only what ``to_dict`` exports survives: metrics, provenance and
        identity.  The live ``engine`` and raw per-workload ``results``
        are gone — this is the form campaign stores and worker processes
        hand back, good for aggregation and :meth:`compare` but not for
        poking at application state.
        """
        metrics = {key: Metrics.from_dict(record)
                   for key, record in data.get("workloads", {}).items()}
        seed = data.get("seed")
        machines = data.get("machines")
        return cls(engine=None, until=float(data.get("until", 0.0)),
                   results={key: record for key, record in metrics.items()},
                   backend=data.get("backend", "kollaps"),
                   scenario=data.get("scenario", ""), metrics=metrics,
                   seed=None if seed is None else int(seed),
                   machines=None if machines is None else int(machines),
                   params=dict(data.get("params", {})))

    def to_csv(self) -> str:
        """Flat CSV: summary rows then series samples, per workload.

        Columns are ``workload,series,time,value``; summary statistics
        appear as ``summary.<name>`` rows with an empty time column.
        """
        out = io.StringIO()
        out.write("workload,series,time,value\n")
        for key in sorted(self.metrics, key=str):
            metrics = self.metrics[key]
            name = str(key).replace(",", ";")
            for stat in sorted(metrics.summary):
                out.write(f"{name},summary.{stat},,"
                          f"{metrics.summary[stat]!r}\n")
            out.write(f"{name},summary.drops,,{metrics.drops}\n")
            for series_name, series in (("throughput", metrics.throughput),
                                        ("latency", metrics.latency)):
                for time, value in series:
                    out.write(f"{name},{series_name},{time!r},{value!r}\n")
        return out.getvalue()
