"""``python3 -m bench`` — the end-to-end performance ledger.

Three ways in, one program:

``python3 -m bench [--seed S] [--quick] [--out FILE]``
    the whole ledger: all five workloads, every end-to-end and per-layer
    metric printed by name with its unit, outputs checked, results written;

``python3 -m bench --workload W --seed S --seconds T --trace 0|1``
    one contract run of one workload (what BENCHMARK.json's driver calls):
    ``--trace 0`` measures the end-to-end metrics, ``--trace 1`` the
    per-layer ones; the last line of standard output is one JSON object;

``python3 -m bench --compare A.json B.json``
    before/after verdicts for two ledger files (see :mod:`bench.compare`).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List

from bench import harness
from bench.compare import compare, load_contract
from bench.workloads import WORKLOADS


def _print_end_to_end(result: Dict[str, object]) -> None:
    reference = result["reference"]
    print(f"  machine: reference routine {reference['wall_s']:.4f} s wall, "
          f"{reference['cpu_s']:.4f} s CPU (nominal "
          f"{reference['nominal_s']} s)")
    for name, stats in result["end_to_end"].items():
        print(f"  {name:<34}{stats['value']:>14.6g} {stats['unit']:<6}"
              f"[raw {stats['raw']:.6g} x {stats['scale']:.3f}: fastest "
              f"{harness.FASTEST} of n={stats['n']}; median "
              f"{stats['median']:.6g}, q1 {stats['q1']:.6g}, "
              f"q3 {stats['q3']:.6g}]")


def _print_per_layer(result: Dict[str, object]) -> None:
    layers = result["per_layer"]
    traced_wall = result["traced_wall_s"]
    for name, metric in layers.items():
        line = f"  {name:<34}{metric['value']:>14.6g} {metric['unit']:<6}"
        if name.endswith(".self_s"):
            line += f"{metric['value'] / traced_wall:>7.1%} of traced wall"
        print(line)
    print("  busiest layer boundaries (calls, inclusive s):")
    for edge in result["edges"][:6]:
        print(f"    {edge['from']:>14} -> {edge['to']:<14}"
              f"{edge['calls']:>10}  {edge['inclusive_s']:.3f}")


def _print_checks(result: Dict[str, object]) -> None:
    checks = result["checks"]
    print(f"  checks: {checks['attempted'] - checks['failed']}/"
          f"{checks['attempted']} passed, failed_share "
          f"{checks['failed'] / checks['attempted']:.3g}; digest "
          f"{result['digest']} ({result['digest_check']})")
    for name in checks["failures"]:
        print(f"    FAILED: {name}")


def contract_run(args) -> int:
    """One driver-contract run: a result line, exit 0 unless broken."""
    result = harness.measure(
        args.workload, args.seed, seconds=args.seconds, scale=args.scale,
        end_to_end=not args.trace, per_layer=bool(args.trace))
    print(f"{args.workload} seed {args.seed} ({args.scale} scale)")
    if args.trace:
        _print_per_layer(result)
        metrics = result["per_layer"]
    else:
        _print_end_to_end(result)
        metrics = {name: {"value": stats["value"], "unit": stats["unit"]}
                   for name, stats in result["end_to_end"].items()}
    _print_checks(result)
    checks = result["checks"]
    print(json.dumps({"correct": checks["failed"] == 0,
                      "attempted": checks["attempted"],
                      "failed": checks["failed"], "metrics": metrics}))
    return 0 if result["deterministic"] else 1


def ledger_run(args) -> int:
    """All five workloads, both sides, one results document."""
    ledger = {"schema": "kollaps-bench/1", "scale": args.scale,
              "seed": args.seed, "machine": harness.machine_record(),
              "workloads": {}}
    print(f"# kollaps end-to-end ledger — {args.scale} scale, seed "
          f"{args.seed}, {json.dumps(ledger['machine'])}")
    if args.scale == "quick":
        print("# QUICK scale: smoke numbers, never comparable with full")
    failed = attempted = 0
    deterministic = True
    for name in WORKLOADS:
        result = harness.measure(
            name, args.seed, seconds=args.seconds, scale=args.scale,
            end_to_end=True, per_layer=True,
            repeats=2 if args.scale == "quick" else harness.MIN_REPEATS)
        ledger["workloads"][name] = result
        print(f"\n{name}  ({result['work']:g} {result['work_unit']} per run)")
        _print_end_to_end(result)
        _print_per_layer(result)
        _print_checks(result)
        attempted += result["checks"]["attempted"]
        failed += result["checks"]["failed"]
        deterministic &= result["deterministic"]
    print(f"\nfailed_share {failed / attempted:.3g} "
          f"({failed} of {attempted} checks)")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(ledger, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.out}")
    return 0 if deterministic and failed == 0 else 1


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m bench",
                                     description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=harness.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring budget per workload "
                             "(default: BENCHMARK.json's run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_const", dest="scale",
                        const="quick", default="full",
                        help="smoke scale; results are labelled and never "
                             "comparable with full-scale ones")
    parser.add_argument("--out", help="write the ledger document here")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    try:
        if args.compare:
            code, lines = compare(*args.compare)
            print("\n".join(lines))
            return code
        if args.seconds is None:
            args.seconds = 0.0 if args.scale == "quick" \
                else float(load_contract()["run_seconds"])
        return contract_run(args) if args.workload else ledger_run(args)
    except harness.BenchError as error:
        print(f"bench: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
