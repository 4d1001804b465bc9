"""One measured run: a fresh process per workload run.

Spawned by :mod:`bench.harness` as ``python3 -m bench.child`` so that each
run pays its own cold import, starts with an empty collapse memo and owns
its peak RSS.  The clock starts on this module's first line — before
``import repro`` — and stops when results are collected; digests, checks
and counter read-out happen after it has stopped.  The last line of
standard output is one JSON document.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from contextlib import contextmanager  # noqa: E402

PHASES = ("import", "build", "compile", "prepare", "start", "advance",
          "collect")

# Registry counter -> ledger name, for the counters the program already
# keeps (they only tick while telemetry is enabled, i.e. on traced runs).
_REGISTRY_COUNTS = {
    "sharing.solver_calls": "core.sharing.solves",
    "collapse.memo_hits": "core.collapse.memo_hits",
    "collapse.incremental_recomputes": "core.collapse.incremental",
    "collapse.recomputes": "core.collapse.full",
    "collapse.pairs": "core.collapse.pairs",
    "engine.state_swaps": "core.engine.state_swaps",
    "engine.chains_touched": "core.engine.chains_touched",
    "dynamic.precompute_states": "core.engine.precompute_states",
    "fluid.steps": "netstack.fluid.steps",
}


def _registry_counts(telemetry) -> dict:
    snapshot = telemetry.metrics.snapshot()

    def value(name: str) -> float:
        return snapshot.get(name, {}).get("value", 0.0)

    counts = {ledger: int(value(name))
              for name, ledger in _REGISTRY_COUNTS.items()}
    solves = counts["core.sharing.solves"]
    counts["core.sharing.flows_per_solve"] = (
        value("sharing.solver_flows") / solves if solves else 0.0)
    counts["core.collapse.calls"] = int(value("collapse.memo_hits")
                                        + value("collapse.memo_misses"))
    # Campaign overhead: what a point costs beyond its backend lifecycle.
    point_s = backend_s = 0.0
    points = 0
    for span in telemetry.tracer().spans:
        if span["name"] == "campaign.point":
            point_s += span["dur"]
            points += 1
        elif span["name"].startswith("backend."):
            backend_s += span["dur"]
    counts["campaign.overhead_ms_per_point"] = (
        (point_s - backend_s) / points * 1e3 if points else 0.0)
    return counts


def _peak_rss_mb() -> float:
    """This process's own high-water RSS.

    Not ``ru_maxrss``: across a vfork + exec that also covers the *parent's*
    peak, so a harness bigger than the child would set the child's figure.
    ``VmHWM`` belongs to the address space exec created.
    """
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def run(args) -> dict:
    from bench.workloads import SCALES, WORKLOADS, engine_counts

    workload = WORKLOADS[args.workload]
    params = SCALES[args.scale][args.workload]
    tracer = None
    if args.trace:
        from bench.tracer import Tracer
        tracer = Tracer()
        tracer.start()

    phases = dict.fromkeys(PHASES, 0.0)
    marks = {}                          # phase -> when it first began

    @contextmanager
    def phase(name: str):
        started = time.perf_counter()
        marks.setdefault(name, started)
        try:
            yield
        finally:
            phases[name] += time.perf_counter() - started

    with phase("import"):
        workload.load()
        if args.trace:
            from repro import telemetry
            telemetry.enable()
    report = workload.run(args.seed, params, phase, args.workdir)
    finished = time.perf_counter()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    peak_rss_mb = _peak_rss_mb()
    if tracer is not None:
        tracer.stop()

    # ---- the clock has stopped: everything below is untimed ------------
    wall_s = finished - _T0
    outcome = report()
    digest = hashlib.blake2b("\n".join(outcome.digest_parts).encode(),
                             digest_size=16).hexdigest()
    counts = engine_counts(outcome.engines)
    counts["apps.ops"] = outcome.ops
    counts.update(outcome.counts)
    document = {
        "workload": workload.name,
        "seed": args.seed,
        "scale": args.scale,
        "traced": bool(args.trace),
        "wall_s": wall_s,
        "setup_s": marks["advance"] - _T0,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": peak_rss_mb,
        "work": outcome.work,
        "work_unit": workload.work_unit,
        "phases": phases,
        "digest": digest,
        "counts": counts,
        "checks": [[name, bool(passed)] for name, passed in outcome.checks],
    }
    if tracer is not None:
        from repro import telemetry
        document["trace"] = tracer.summary(wall_s)
        document["traced_counts"] = _registry_counts(telemetry)
    return document


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="bench.child")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", choices=("full", "quick"), required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args(argv)
    if args.probe:
        from bench.probes import run_probes
        document = run_probes(args.workload, args.seed, args.scale)
    else:
        document = run(args)
    sys.stdout.write(json.dumps(document) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
