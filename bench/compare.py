"""``python3 -m bench --compare A.json B.json``: the before/after tool.

A is the parent (baseline), B the change.  One row per workload x
end-to-end metric with both values (calibrated, as a contract run reports
them), raw medians and quartiles, the ratio B/A and a verdict against the bound
BENCHMARK.json fixes for the metric:

* ``ok`` — B's value is not worse than A's by more than the bound;
* ``regressed`` — it is;
* ``unresolved`` — the run-to-run spread of either side (quartile distance
  over median) exceeds the bound and the two sets of runs overlap, so the
  data cannot tell (every run of B reading better than every run of A
  still counts as ``ok``).

Result digests and exact counts are compared exactly.  The exit code is
non-zero on any regression or digest mismatch; changed counts are listed
but do not fail (a kernel change may legitimately move an event count).
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Tuple

from bench.harness import ROOT, TRACED_COUNTS

# setup_s on the import-dominated workloads is ~0.2 s: below this many
# seconds a shift is timer-and-page-cache noise whatever its share.
SETUP_FLOOR_S = 0.05
# Read from the traced child, but wall-clock derived: not exact counts.
_INEXACT = ("campaign.overhead_ms_per_point",)


def load_contract() -> Dict[str, object]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as file:
        return json.load(file)


def verdict(metric: Dict[str, object], a: Dict[str, object],
            b: Dict[str, object]) -> Tuple[float, str]:
    """(B/A ratio of the reported values, ok | regressed | unresolved)."""
    lower = metric["better"] == "lower"
    base = a["value"]
    worse = (b["value"] - base) / base if lower \
        else (base - b["value"]) / base
    allowed = metric["bound"]
    if metric["name"] == "setup_s":
        allowed = max(allowed, SETUP_FLOOR_S / base)
    noise = max((a["q3"] - a["q1"]) / a["median"],
                (b["q3"] - b["q1"]) / b["median"])
    if noise > allowed:
        runs_a = [value * a["scale"] for value in a["values"]]
        runs_b = [value * b["scale"] for value in b["values"]]
        apart = (max(runs_b) < min(runs_a) if lower
                 else min(runs_b) > max(runs_a))
        return b["value"] / base, "ok" if apart else "unresolved"
    return b["value"] / base, "regressed" if worse > allowed else "ok"


def exact_counts(entry: Dict[str, object]) -> Dict[str, object]:
    counts = dict(entry["counts"])
    for name in TRACED_COUNTS:
        if name not in _INEXACT:
            counts[name] = entry["per_layer"][name]["value"]
    return counts


def compare(path_a: str, path_b: str) -> Tuple[int, List[str]]:
    """Exit code and the report lines for two ledger files."""
    with open(path_a, encoding="utf-8") as file:
        ledger_a = json.load(file)
    with open(path_b, encoding="utf-8") as file:
        ledger_b = json.load(file)
    if ledger_a["scale"] != ledger_b["scale"]:
        return 2, [f"not comparable: {path_a} is {ledger_a['scale']}-scale, "
                   f"{path_b} is {ledger_b['scale']}-scale"]
    contract = load_contract()
    lines = [f"A = {path_a}  ({ledger_a['machine']['git_commit']})",
             f"B = {path_b}  ({ledger_b['machine']['git_commit']})",
             f"scale {ledger_a['scale']}, seeds {ledger_a['seed']} / "
             f"{ledger_b['seed']}", "",
             f"{'workload':<20}{'metric':<13}"
             f"{'A value (raw median [q1, q3])':>42}"
             f"{'B value (raw median [q1, q3])':>42}{'B/A':>8}  verdict"]
    failed = False

    def cell(stats: Dict[str, object]) -> str:
        return (f"{stats['value']:.4g} ({stats['median']:.4g} "
                f"[{stats['q1']:.4g}, {stats['q3']:.4g}]) n={stats['n']}")

    for workload in (item["name"] for item in contract["workloads"]):
        a, b = ledger_a["workloads"][workload], ledger_b["workloads"][workload]
        for metric in contract["end_to_end"]:
            stats_a = a["end_to_end"][metric["name"]]
            stats_b = b["end_to_end"][metric["name"]]
            ratio, outcome = verdict(metric, stats_a, stats_b)
            failed |= outcome == "regressed"
            lines.append(f"{workload:<20}{metric['name']:<13}"
                         f"{cell(stats_a):>42}{cell(stats_b):>42}"
                         f"{ratio:>8.3f}  {outcome}")
        same_inputs = ledger_a["seed"] == ledger_b["seed"]
        if not same_inputs:
            lines.append(f"{workload:<20}digest       different seeds: "
                         "not compared")
            continue
        same = a["digest"] == b["digest"]
        failed |= not same
        lines.append(f"{workload:<20}digest       {a['digest']} "
                     f"{'==' if same else '!='} {b['digest']}  "
                     f"{'same' if same else 'MISMATCH'}")
        counts_a, counts_b = exact_counts(a), exact_counts(b)
        changed = [name for name in counts_a
                   if counts_a[name] != counts_b.get(name)]
        lines.append(f"{workload:<20}counts       "
                     f"{len(counts_a) - len(changed)} identical"
                     + "".join(f"; {name}: {counts_a[name]} -> "
                               f"{counts_b.get(name)} changed"
                               for name in changed))
    lines.append("")
    lines.append("REGRESSED" if failed else "no regression")
    return (1 if failed else 0), lines
