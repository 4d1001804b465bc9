"""Tier-1 smoke test of the ledger: every workload at ``--quick`` scale.

Quick numbers say nothing about performance; this only proves that the
command runs end to end, that every name BENCHMARK.json promises is
printed with a unit and a finite value, that outputs check out and that
same-seed runs repeat exactly.
"""

import json
import math
import os
import subprocess
import sys

import pytest

from bench import harness
from bench.compare import load_contract


def _bench(*arguments):
    return subprocess.run([sys.executable, "-m", "bench", *arguments],
                          cwd=harness.ROOT, text=True, timeout=120,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE)


@pytest.fixture(scope="module")
def contract():
    return load_contract()


@pytest.fixture(scope="module")
def quick_ledger(tmp_path_factory):
    path = tmp_path_factory.mktemp("bench") / "quick.json"
    done = _bench("--quick", "--out", str(path))
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    with open(path, encoding="utf-8") as handle:
        return str(path), done.stdout, json.load(handle)


def test_every_promised_name_is_reported(contract, quick_ledger):
    _path, printed, ledger = quick_ledger
    assert ledger["scale"] == "quick" and "QUICK" in printed
    for key in ("python", "numpy", "nproc", "git_commit"):
        assert key in ledger["machine"]
    assert sorted(ledger["workloads"]) == sorted(
        item["name"] for item in contract["workloads"])
    for name, result in ledger["workloads"].items():
        assert name in printed
        for metric in contract["end_to_end"]:
            stats = result["end_to_end"][metric["name"]]
            assert stats["unit"] == metric["unit"]
            assert math.isfinite(stats["value"]) and stats["value"] > 0
            assert stats["value"] == pytest.approx(
                stats["raw"] * stats["scale"])
            assert stats["q1"] <= stats["median"] <= stats["q3"]
            assert stats["n"] >= 2
            assert metric["name"] in printed
        for metric in contract["per_layer"]:
            reported = result["per_layer"][metric["name"]]
            assert reported["unit"] == metric["unit"]
            assert math.isfinite(reported["value"])
            assert metric["name"] in printed
        assert len(result["per_layer"]) == len(contract["per_layer"])


def test_outputs_check_out_and_repeat(quick_ledger):
    _path, printed, ledger = quick_ledger
    assert "failed_share 0 " in printed
    for name, result in ledger["workloads"].items():
        assert result["checks"]["failed"] == 0, result["checks"]["failures"]
        # Two untraced children and the traced one, same seed: identical
        # digest and identical exact counts.
        assert result["deterministic"], name
        assert result["digest_check"] == "checked" or \
            result["digest_check"].startswith("skipped (recorded on")


def test_layer_shares_sum_to_one(quick_ledger):
    _path, _printed, ledger = quick_ledger
    for name, result in ledger["workloads"].items():
        total = sum(metric["value"]
                    for key, metric in result["per_layer"].items()
                    if key.endswith(".self_s"))
        assert total / result["traced_wall_s"] == pytest.approx(1.0, abs=0.01)
        assert result["per_layer"]["trace.overhead_ratio"]["value"] > 0


def test_compare_accepts_identical_ledgers(quick_ledger):
    path, _printed, _ledger = quick_ledger
    done = _bench("--compare", path, path)
    assert done.returncode == 0, done.stdout
    assert "no regression" in done.stdout and "MISMATCH" not in done.stdout


def test_contract_run_prints_one_result_line(contract):
    done = _bench("--workload", "campaign_sweep", "--seed", "7", "--seconds",
                  "0", "--trace", "0", "--quick")
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert sorted(result["metrics"]) == sorted(
        metric["name"] for metric in contract["end_to_end"])


def test_refuses_to_run_without_the_program(tmp_path):
    """The contract: no result, non-zero exit, where only bench/ exists."""
    import shutil
    shutil.copytree(os.path.join(harness.ROOT, "bench"), tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(harness.ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, "-m", "bench", "--workload", "kv_packet", "--seed",
         "1", "--seconds", "1", "--trace", "0"], cwd=tmp_path, text=True,
        timeout=60, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env={key: value for key, value in os.environ.items()
             if key != "PYTHONPATH"})
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
