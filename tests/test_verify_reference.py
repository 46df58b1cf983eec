"""The verify battery reproduces the benchmark's recorded reports.

perfbench/refs/verify.json holds the name, pass flag and observed values of
every check for each recorded seed.  A change that moves one of them would
fail the benchmark's correctness gate; this test makes it fail Tier 1 too,
judged by the benchmark's own comparison (bench_workloads), which the test
only reads.
"""
import json
import sys
from pathlib import Path

import pytest

from srfe_lab.checks import run_all

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.append(str(PERFBENCH))

from bench_workloads import WORKLOADS  # noqa: E402

VERIFY = WORKLOADS["verify"]
REFERENCE = json.loads((PERFBENCH / "refs" / "verify.json").read_text())["seeds"]


@pytest.mark.parametrize("seed", sorted(REFERENCE, key=int))
def test_run_all_matches_recorded_reference(seed):
    records = [r.to_dict() for r in run_all(seed=int(seed))]
    mismatches, compared = VERIFY.compare(records, REFERENCE[seed])
    assert compared > 0
    assert mismatches == 0
