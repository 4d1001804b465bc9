"""Differential backend testing: one scenario, N systems, zero drift.

``run_differential(compiled, backends=("kollaps", "trickle"))`` projects
a scenario onto the *common* capability set of the chosen backends
(dynamic events are stripped unless every backend applies them; each
workload is kept only if every backend validates it), runs the identical
projection on each backend, and compares:

* **path tables** — the canonical collapsed end-to-end table of the
  scenario each backend actually built, against the projection's;
* **metrics** — every shared workload's headline statistic, pairwise
  against the first backend, flagged when the relative deviation
  exceeds ``tolerance``.

Every discrepancy is a structured :class:`Divergence` finding inside a
:class:`DifferentialReport` (``report.ok`` / ``report.summary()``), so
fuzz campaigns and CI can assert "kollaps and trickle agree on
thousands of generated scenarios" and point at exactly what broke when
they don't.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.scenario.backends import ExecutionBackend, execute, \
    resolve_backend
from repro.scenario.dsl.format import scenario_from_scn, scn_document

__all__ = ["Divergence", "DifferentialReport", "project_common",
           "run_differential"]


@dataclass(frozen=True)
class Divergence:
    """One structured finding: where two backends (or a backend and the
    projection) disagree."""

    kind: str                  # "metric" | "path_table" | "error" | "empty"
    backend: str
    baseline: str = ""
    workload: str = ""
    detail: str = ""
    baseline_value: Optional[float] = None
    value: Optional[float] = None
    deviation: Optional[float] = None

    def __str__(self) -> str:
        if self.kind == "metric":
            return (f"metric divergence [{self.workload}] "
                    f"{self.baseline}={self.baseline_value:g} vs "
                    f"{self.backend}={self.value:g} "
                    f"(deviation {self.deviation:.1%})")
        if self.kind == "path_table":
            return (f"path-table divergence on {self.backend}: "
                    f"{self.detail}")
        return f"{self.kind} [{self.backend}]: {self.detail}"


@dataclass
class DifferentialReport:
    """Outcome of one differential run across N backends."""

    scenario: str
    backends: Tuple[str, ...]
    tolerance: float
    findings: List[Divergence] = field(default_factory=list)
    compared: List[str] = field(default_factory=list)
    events_dropped: int = 0
    #: workload key -> backend name -> the validation problems that
    #: excluded it from the common projection.
    dropped_workloads: Dict[str, Dict[str, List[str]]] = \
        field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.findings

    def summary(self) -> str:
        status = "agree" if self.ok else \
            f"DIVERGE ({len(self.findings)} finding(s))"
        parts = [f"{self.scenario}: {' vs '.join(self.backends)} {status}; "
                 f"{len(self.compared)} workload(s) compared"]
        if self.events_dropped:
            parts.append(f"{self.events_dropped} event(s) outside common "
                         f"capabilities dropped")
        if self.dropped_workloads:
            parts.append(f"{len(self.dropped_workloads)} workload(s) "
                         f"dropped: {', '.join(sorted(self.dropped_workloads))}")
        lines = ["; ".join(parts)]
        lines += [f"  {finding}" for finding in self.findings]
        return "\n".join(lines)


# --------------------------------------------------------------------------
# Projection onto common capabilities.
# --------------------------------------------------------------------------
def project_common(compiled, backends: Sequence[ExecutionBackend]):
    """The largest sub-scenario every backend can execute.

    Returns ``(projected, events_dropped, dropped_workloads)``.  The
    projection goes through the canonical ``.scn`` document — the same
    reviewable form the tooling uses — so what runs differentially is
    exactly what a dumped file says.
    """
    document = scn_document(compiled)

    events_dropped = 0
    if document.get("events") and any(
            not backend.capabilities.dynamic_events
            for backend in backends):
        events_dropped = len(document.pop("events"))

    dropped: Dict[str, Dict[str, List[str]]] = {}
    kept = []
    for spec in document.get("workloads", []):
        trial_document = {key: value for key, value in document.items()
                          if key != "workloads"}
        trial_document["workloads"] = [spec]
        trial = scenario_from_scn(trial_document, validate=False).compile()
        problems = {backend.name: backend.validate(trial)
                    for backend in backends}
        problems = {name: reasons for name, reasons in problems.items()
                    if reasons}
        if problems:
            dropped[spec["key"]] = problems
        else:
            kept.append(spec)
    if kept:
        document["workloads"] = kept
    else:
        document.pop("workloads", None)

    projected = scenario_from_scn(document, validate=False).compile()
    return projected, events_dropped, dropped


def _system_path_table(projected, system) -> Optional[str]:
    """The canonical path table of the topology a backend actually
    built, rendered exactly like :meth:`CompiledScenario.path_table`
    (None when the system exposes no topology)."""
    topology = getattr(system, "topology", None)
    if topology is None:
        state = getattr(system, "current_state", None)
        topology = getattr(state, "topology", None)
    if topology is None:
        return None
    return dataclasses.replace(projected, topology=topology).path_table()


# --------------------------------------------------------------------------
# The harness.
# --------------------------------------------------------------------------
def run_differential(compiled,
                     backends: Sequence[Union[str, ExecutionBackend]] = (
                         "kollaps", "trickle"), *,
                     until: Optional[float] = None,
                     tolerance: float = 0.15,
                     backend_options: Optional[Dict[str, Dict]] = None
                     ) -> DifferentialReport:
    """Run one scenario across several backends and report divergences.

    ``backends`` are registry names or ready instances (first one is the
    comparison baseline); ``tolerance`` bounds the acceptable relative
    deviation of each shared workload's headline metric;
    ``backend_options`` maps a backend name to factory options.

    Trickle defaults to its *tuned* small send buffer here: the default
    128 KB buffer deliberately reproduces the paper's erratic +40..100 %
    overshoot (Table 2), which is a property of that configuration, not
    a backend divergence.  Pass ``backend_options={"trickle": {...}}`` to
    compare against the untuned shaper instead.
    """
    if len(backends) < 2:
        raise ValueError("differential testing needs at least 2 backends")
    from repro.baselines.trickle import TRICKLE_TUNED_BUFFER_BYTES
    options = {"trickle": {"send_buffer_bytes": TRICKLE_TUNED_BUFFER_BYTES}}
    options.update(backend_options or {})
    resolved = [resolve_backend(backend, **options.get(backend, {}))
                if isinstance(backend, str) else resolve_backend(backend)
                for backend in backends]
    names = tuple(backend.name for backend in resolved)

    projected, events_dropped, dropped = project_common(compiled, resolved)
    report = DifferentialReport(scenario=compiled.name, backends=names,
                                tolerance=tolerance,
                                events_dropped=events_dropped,
                                dropped_workloads=dropped)

    reference_table = projected.path_table()
    horizon = until if until is not None else projected.default_duration()

    runs = []
    for backend in resolved:
        try:
            run = execute(projected, backend, horizon)
        except Exception as error:  # structured finding, not a traceback
            report.findings.append(Divergence(
                kind="error", backend=backend.name,
                detail=f"{type(error).__name__}: {error}"))
            continue
        built_table = _system_path_table(projected, run.engine)
        if built_table is not None and built_table != reference_table:
            report.findings.append(Divergence(
                kind="path_table", backend=backend.name,
                detail="collapsed path table of the built system differs "
                       "from the projected scenario's"))
        runs.append(run)

    if len(runs) < 2:
        report.findings.append(Divergence(
            kind="empty", backend=",".join(names),
            detail="fewer than two backends produced a run; "
                   "nothing to compare"))
        return report

    baseline = runs[0]
    compared = set()
    for other in runs[1:]:
        comparison = baseline.compare(other)
        for delta in comparison:
            compared.add(str(delta.key))
            if delta.deviation > tolerance:
                report.findings.append(Divergence(
                    kind="metric", backend=other.backend,
                    baseline=baseline.backend, workload=str(delta.key),
                    detail=delta.metric,
                    baseline_value=delta.baseline, value=delta.other,
                    deviation=delta.deviation))
        if not comparison.deltas:
            report.findings.append(Divergence(
                kind="empty", backend=other.backend,
                baseline=baseline.backend,
                detail="no shared workload carried a comparable headline "
                       "metric"))
    report.compared = sorted(compared)
    return report
