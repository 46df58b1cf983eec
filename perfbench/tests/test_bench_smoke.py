"""Smoke tests of the benchmark itself.

    python3 -m pytest perfbench/tests

Each workload runs at a tiny size (2 training iterations), traced and
untraced, and must print every metric BENCHMARK.json names.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

from bench_trace import self_times  # noqa: E402
from bench_workloads import WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def _bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_reports_every_metric(workload, trace):
    proc = _bench("--workload", workload, "--seed", "0", "--seconds", "1",
                  "--trace", trace, "--iterations", "2")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in wanted}
    for m in wanted:
        assert f"  {m['name']} " in proc.stdout
    if workload == "verify" and trace == "1":
        # verify has no size knob, so its seed-0 reference applies
        assert result["metrics"]["ref_compared"]["value"] > 0
        assert result["metrics"]["ref_mismatch"]["value"] == 0


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "verify", "--seed", "0", "--seconds", "1",
                  "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_compare_counts_each_value_off_the_reference():
    spec = WORKLOADS["fit-mix"]
    with open(os.path.join(BENCH_DIR, "refs", "fit-mix.json"), encoding="utf-8") as fh:
        reference = json.load(fh)["seeds"]["0"]
    records = [dict(r) for r in reference]
    assert spec.compare(records, reference) == (0, 5 * len(reference))
    records[0]["ess"] = repr(float(records[0]["ess"]) * (1 + 1e-4))
    records[1]["mode_coverage"] = "0"
    assert spec.compare(records, reference)[0] == 2
    assert spec.compare(records[:-1], reference)[0] == 2 + 5


def test_self_time_subtracts_the_union_of_children():
    # parent 0..10; two overlapping children in other threads cover 1..7
    spans = [(1, "p", 0.0, 10.0, 0, 0, None),
             (2, "a", 1.0, 5.0, 1, 1, None),
             (3, "b", 3.0, 7.0, 1, 2, None)]
    own = self_times(spans)
    assert own[1] == pytest.approx(4.0)
    assert own[2] == pytest.approx(4.0) and own[3] == pytest.approx(4.0)
