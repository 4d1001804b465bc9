"""Spawn measured children, fold their reports into the ledger's metrics.

One *measurement* of a workload is a series of fresh child processes with
the same seed, run one at a time:

* ``trace=0`` — as many untraced children as fit the ``seconds`` budget
  (at least :data:`MIN_REPEATS`), the reference routine of
  :mod:`bench.reference` before each; every end-to-end metric is the mean
  of the :data:`FASTEST` best children, times calibrated by the machine's
  speed at that moment (see :func:`end_to_end_metrics`);
* ``trace=1`` — two untraced children (phase spans, the overhead
  denominator), one traced child (layer self times, registry counters)
  and, where the workload owns layer probes, one probe child.

Children of one measurement must agree on the result digest and on every
exact count; a disagreement is a failed check and a non-zero exit.
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

from bench.child import PHASES
from bench.probes import PROBE_METRICS, has_probes
from bench.reference import NOMINAL_S, reference_s
from bench.tracer import LAYERS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".bench_work")
EXPECTED_DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "expected_digests.json")

MIN_REPEATS = 3
FASTEST = 3
CHILD_TIMEOUT_S = 150
DEFAULT_SEED = 1

# Knobs that must not leak from the caller's shell into a measured run.
_SCRUBBED = ("REPRO_TRACE", "REPRO_ENGINE", "REPRO_COLLAPSE_CACHE")

# End-to-end metric -> (unit, better); BENCHMARK.json repeats these.
END_TO_END = {"wall_s": ("s", "lower"), "setup_s": ("s", "lower"),
              "work_per_s": ("1/s", "higher"), "cpu_s": ("s", "lower"),
              "peak_rss_mb": ("MB", "lower")}

# Exact counts every child can read from public attributes (traced or not).
PUBLIC_COUNTS = (
    "sim.events", "netstack.packets_delivered", "netstack.packets_dropped",
    "netstack.backpressure_events", "tc.netlink_calls", "tc.chains_installed",
    "core.manager.loop_iterations", "metadata.wire_bytes",
    "metadata.messages", "apps.ops", "campaign.points",
    "campaign.store_appends")
# Counts the program's telemetry registry keeps — traced child only.
TRACED_COUNTS = (
    "core.sharing.solves", "core.sharing.flows_per_solve",
    "core.collapse.calls", "core.collapse.memo_hits",
    "core.collapse.incremental", "core.collapse.full", "core.collapse.pairs",
    "core.engine.state_swaps", "core.engine.chains_touched",
    "core.engine.precompute_states", "netstack.fluid.steps",
    "campaign.overhead_ms_per_point")


class BenchError(RuntimeError):
    """The benchmark cannot run here (no program, a child crashed)."""


def per_layer_units() -> Dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {f"phase.{name}_s": "s" for name in PHASES}
    units.update({f"{layer}.self_s": "s" for layer in LAYERS})
    for name in PUBLIC_COUNTS + TRACED_COUNTS:
        units[name] = "count"
    units["metadata.wire_bytes"] = "B"
    units["core.sharing.flows_per_solve"] = "flows"
    units["campaign.overhead_ms_per_point"] = "ms"
    units["sim.events_per_s"] = "1/s"
    units["trace.overhead_ratio"] = "ratio"
    units["machine.reference_s"] = "s"
    units.update(dict.fromkeys(PROBE_METRICS, "1/s"))
    return units


def child_environment() -> Dict[str, str]:
    environment = {name: value for name, value in os.environ.items()
                   if name not in _SCRUBBED}
    environment["PYTHONPATH"] = os.pathsep.join([SOURCE, ROOT])
    environment["OMP_NUM_THREADS"] = "1"
    environment["OPENBLAS_NUM_THREADS"] = "1"
    return environment


def spawn(workload: str, seed: int, scale: str, *, trace: int = 0,
          probe: bool = False) -> Dict[str, object]:
    """Run one child to completion and return its JSON report."""
    if not os.path.isdir(os.path.join(SOURCE, "repro")):
        raise BenchError(f"no program to measure: {SOURCE}/repro is missing")
    workdir = os.path.join(WORK_ROOT, f"{os.getpid()}-{time.monotonic_ns()}")
    os.makedirs(workdir)
    command = [sys.executable, "-m", "bench.child", "--workload", workload,
               "--seed", str(seed), "--scale", scale, "--trace", str(trace),
               "--workdir", workdir]
    if probe:
        command.append("--probe")
    try:
        # run() kills and reaps the child itself when the timeout expires.
        done = subprocess.run(command, cwd=ROOT, env=child_environment(),
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: child exceeded {CHILD_TIMEOUT_S} s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass                       # another measurement is using it
    if done.returncode != 0:
        raise BenchError(f"{workload}: child exited {done.returncode}\n"
                         f"{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def fastest_mean(values: List[float], better: str = "lower") -> float:
    """Mean of the :data:`FASTEST` best values.

    Work per child is fixed and its counts repeat exactly, so whatever a
    run takes above the fastest ones is the machine interfering, never the
    program; averaging a few of the fastest cuts the luck of a single one.
    """
    best = sorted(values, reverse=better == "higher")[:FASTEST]
    return sum(best) / len(best)


def end_to_end_metrics(untraced: List[Dict[str, object]],
                       references: List[Tuple[float, float]]
                       ) -> Dict[str, object]:
    """The five end-to-end metrics of one measurement.

    Times are the fastest-mean over the children multiplied by
    ``NOMINAL_S / fastest-mean reference time``: the shared reference box
    slows by tens of percent for minutes at a time, and the reference
    routine, run between the children, slows with it.  Over 30 consecutive
    20 s measurements per workload the raw best-of-n spread 10-20 % and its
    median moved by up to 16 % between tens of measurements; calibrated,
    5-9 % and under 6 %.  Raw values and reference times stay in the
    ledger (``value = raw * scale``).  CPU time is calibrated by the
    routine's CPU time, wall times by its wall time (they part company
    when the hypervisor steals the vCPU); rates the other way round;
    memory is not a time and is not calibrated.
    """
    wall_reference = fastest_mean([wall for wall, _cpu in references])
    cpu_reference = fastest_mean([cpu for _wall, cpu in references])
    factors = {"wall_s": NOMINAL_S / wall_reference,
               "setup_s": NOMINAL_S / wall_reference,
               "cpu_s": NOMINAL_S / cpu_reference}
    work = untraced[0]["work"]
    metrics: Dict[str, object] = {}
    for name, (unit, better) in END_TO_END.items():
        if name == "work_per_s":
            values = [work / child["wall_s"] for child in untraced]
            scale = 1.0 / factors["wall_s"]
        else:
            values = [child[name] for child in untraced]
            scale = factors.get(name, 1.0)
        raw = fastest_mean(values, better)
        if len(values) >= 2:
            q1, _median, q3 = statistics.quantiles(values, n=4)
        else:
            q1 = q3 = values[0]
        metrics[name] = {
            "value": raw * scale, "unit": unit, "raw": raw, "scale": scale,
            "median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values), "values": values}
    return {"end_to_end": metrics,
            "reference": {"nominal_s": NOMINAL_S, "wall_s": wall_reference,
                          "cpu_s": cpu_reference, "values": references}}


def _numpy_version() -> Optional[str]:
    try:
        import numpy
    except ImportError:
        return None
    return numpy.__version__


def machine_record() -> Dict[str, object]:
    """Written with every result: what the numbers were measured on."""
    try:
        commit: Optional[str] = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, text=True, timeout=10,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = None                  # a bare checkout, not a repository
    return {"python": platform.python_version(), "numpy": _numpy_version(),
            "nproc": os.cpu_count(), "platform": platform.platform(),
            "git_commit": commit}


def digest_environment() -> Dict[str, Optional[str]]:
    """What a recorded digest is pinned to.

    Digests round floats to nine digits, but the numpy solver backend may
    still differ beyond that between releases, so a digest recorded on one
    (python minor, numpy) pair is only checked on the same pair.
    """
    return {"python": "%d.%d" % sys.version_info[:2],
            "numpy": _numpy_version()}


def expected_digest(workload: str, seed: int,
                    scale: str) -> Tuple[Optional[str], str]:
    """The checked-in digest for this run, or why there is none to check."""
    with open(EXPECTED_DIGESTS, encoding="utf-8") as handle:
        expected = json.load(handle)
    if seed != expected["seed"]:
        return None, f"seed {seed} is not the default {expected['seed']}"
    for name, here in digest_environment().items():
        if expected[name] != here:
            return None, f"recorded on {name} {expected[name]}, not {here}"
    return expected["digests"][scale][workload], ""


def measure(workload: str, seed: int, *, seconds: float, scale: str,
            end_to_end: bool, per_layer: bool,
            repeats: int = MIN_REPEATS) -> Dict[str, object]:
    """One measurement of one workload (see the module docstring).

    The contract runs ask for one side each; the full ledger asks for both
    and the per-layer side then reuses the end-to-end side's untraced
    children instead of running its own two.
    """
    started = time.monotonic()
    untraced: List[Dict[str, object]] = []
    references: List[Tuple[float, float]] = []
    while True:
        references.append(reference_s())
        untraced.append(spawn(workload, seed, scale))
        elapsed = time.monotonic() - started
        if not end_to_end:
            if len(untraced) == 2:
                break
        elif len(untraced) >= repeats and \
                elapsed + elapsed / len(untraced) > seconds:
            break
    traced = probes = None
    if per_layer:
        traced = spawn(workload, seed, scale, trace=1)
        if has_probes(workload):
            probes = spawn(workload, seed, scale, probe=True)["probes"]

    first = untraced[0]
    checks: List[Tuple[str, bool]] = []
    for index, child in enumerate(untraced):
        checks += [(f"run {index}: {name}", passed)
                   for name, passed in child["checks"]]
    reports = untraced + ([traced] if traced else [])
    deterministic = all(child["digest"] == first["digest"]
                        and child["counts"] == first["counts"]
                        for child in reports)
    checks.append(("same-seed runs agree on digest and every exact count",
                   deterministic))
    recorded, skipped = expected_digest(workload, seed, scale)
    if recorded is not None:
        checks.append(("result digest matches the checked-in one",
                       first["digest"] == recorded))

    result: Dict[str, object] = {
        "workload": workload, "seed": seed, "scale": scale,
        "digest": first["digest"],
        "digest_check": "checked" if recorded is not None
        else f"skipped ({skipped})",
        "work": first["work"], "work_unit": first["work_unit"],
        "counts": {name: first["counts"].get(name, 0)
                   for name in PUBLIC_COUNTS},
        "checks": {"attempted": len(checks),
                   "failed": sum(1 for _name, passed in checks if not passed),
                   "failures": [name for name, passed in checks
                                if not passed]},
        "deterministic": deterministic,
    }
    if end_to_end:
        result.update(end_to_end_metrics(untraced, references))
    if per_layer:
        result.update(_per_layer(untraced, traced, probes, references))
    return result


def _per_layer(untraced, traced, probes, references) -> Dict[str, object]:
    # Phase spans come from one child — the fastest — so they add up.
    fastest = min(untraced, key=lambda child: child["wall_s"])
    layer: Dict[str, float] = {f"phase.{name}_s": fastest["phases"][name]
                               for name in PHASES}
    for name in LAYERS:
        layer[f"{name}.self_s"] = traced["trace"]["self_s"][name]
    for name in PUBLIC_COUNTS:
        layer[name] = traced["counts"].get(name, 0)
    for name in TRACED_COUNTS:
        layer[name] = traced["traced_counts"][name]
    advance = layer["phase.advance_s"]
    layer["sim.events_per_s"] = layer["sim.events"] / advance \
        if advance > 0 else 0.0
    layer["trace.overhead_ratio"] = traced["wall_s"] / fastest["wall_s"]
    layer["machine.reference_s"] = fastest_mean(
        [wall for wall, _cpu in references])
    layer.update(probes or dict.fromkeys(PROBE_METRICS, 0.0))
    units = per_layer_units()
    return {"per_layer": {name: {"value": layer[name], "unit": units[name]}
                          for name in units},
            "traced_wall_s": traced["wall_s"],
            "edges": traced["trace"]["edges"]}
