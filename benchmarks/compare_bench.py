"""Compare a freshly measured baseline (``BENCH_engine.json``,
``BENCH_dsl.json``) against the checked-in one.

Usage::

    python benchmarks/compare_bench.py MEASURED.json BASELINE.json [--gate N]

Prints one row per shared metric — checked-in value, measured value and
the ratio — then applies three different kinds of gate:

* **rates** (any floating-point metric) must lie within ``[1/gate,
  gate]`` of the checked-in value (default gate 2: CI runners are slower
  or faster than the machine that wrote the baseline, but not 2x in
  either direction without something being wrong);
* **counts and settings** (integers, strings, lists: problem sizes,
  ``failures``, ``count``, the ``differential`` backends) must match
  *exactly* — they say what was measured, not how fast;
* **checksums** (metrics ending in ``_checksum`` or named
  ``*_checksum_*``) must match *exactly* — they are machine-independent
  fingerprints of solver output, collapse output and simulator event
  order, so any difference is CORRECTNESS DRIFT, not noise, regardless
  of how fast the runner is.

Exits non-zero when any gate trips, so CI can fail the job.
"""

from __future__ import annotations

import argparse
import json
import sys

SKIP_KEYS = {"bench"}


def is_checksum(key: str) -> bool:
    return "checksum" in key


def compare(measured: dict, baseline: dict, gate: float) -> int:
    failures = 0
    keys = [key for key in baseline if key not in SKIP_KEYS]
    width = max(len(key) for key in keys)
    header = (f"{'metric':<{width}}  {'checked-in':>14}  "
              f"{'measured':>14}  {'ratio':>7}  verdict")
    print(header)
    print("-" * len(header))
    for key in keys:
        expected = baseline[key]
        actual = measured.get(key)
        if actual is None:
            print(f"{key:<{width}}  {expected!s:>14}  {'MISSING':>14}"
                  f"  {'':>7}  FAIL (metric absent from measurement)")
            failures += 1
            continue
        if is_checksum(key):
            verdict = "ok" if actual == expected else (
                "FAIL — CORRECTNESS DRIFT (checksums are machine-"
                "independent; refresh the baseline only if the change "
                "in solver/collapse/event-order output is intended)")
            if actual != expected:
                failures += 1
            print(f"{key:<{width}}  {expected!s:>14}  {actual!s:>14}"
                  f"  {'exact':>7}  {verdict}")
            continue
        if isinstance(expected, float):
            if expected == 0 or not isinstance(actual, (int, float)):
                ratio_text, ok = "?", actual == expected
            else:
                ratio = actual / expected
                ratio_text = f"{ratio:.2f}x"
                ok = (1.0 / gate) <= ratio <= gate
            if not ok:
                failures += 1
            print(f"{key:<{width}}  {expected!s:>14}  {actual!s:>14}"
                  f"  {ratio_text:>7}  {'ok' if ok else 'FAIL'}")
        else:
            ok = actual == expected
            if not ok:
                failures += 1
            print(f"{key:<{width}}  {expected!s:>14}  {actual!s:>14}"
                  f"  {'':>7}  {'ok' if ok else 'FAIL'}")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Gate a measured engine baseline against BENCH_*.json")
    parser.add_argument("measured", help="freshly written baseline JSON")
    parser.add_argument("baseline", help="checked-in baseline JSON")
    parser.add_argument("--gate", type=float, default=2.0,
                        help="rate tolerance factor (default 2: rates must"
                             " lie within [1/gate, gate] of checked-in)")
    options = parser.parse_args(argv)
    with open(options.measured, encoding="utf-8") as handle:
        measured = json.load(handle)
    with open(options.baseline, encoding="utf-8") as handle:
        baseline = json.load(handle)
    failures = compare(measured, baseline, options.gate)
    if failures:
        print(f"\n{failures} metric(s) outside the gate", file=sys.stderr)
        return 1
    print("\nall metrics within the gate")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
