"""The three benchmark workloads: how to run each through the srfe-lab CLI,
how to read back what it wrote, and how to judge that output.  Why each
workload is in the benchmark is recorded in BENCHMARK.json.

Stdlib only, because both run.py and the child process that
runs one workload (bench_child.py) import it.
"""
from __future__ import annotations

import csv
import itertools
import json
import math
import os
from dataclasses import dataclass

# Reduced fitting config, fixed here so that every commit is measured on the
# same work.  Batch size and learning rate stay at the package defaults.
ITERATIONS = 150

# Outputs must agree with the recorded reference to this tolerance.  It is
# loose enough for a change of summation order and tight enough that any
# change of the fitted numbers shows.
RTOL = 1e-6
ATOL = 1e-9

_FIT_VALUES = ("ess", "entropy_error", "test_log_lik", "final_loss")
_FIT_KEYS = ("method", "tau", "schedule", "outlier_weight", "trial", "seed")


@dataclass(frozen=True)
class Workload:
    name: str
    command: str          # srfe-lab subcommand
    output: str           # the one file the subcommand writes

    @property
    def is_fit(self) -> bool:
        return self.command != "verify"

    def config(self, iterations: int) -> dict:
        """The reduced config handed to the CLI through --config."""
        return {"iterations": iterations} if self.is_fit else {}

    def argv(self, seed: int, out_dir: str, config_path: str) -> list[str]:
        if self.is_fit:
            return [self.command, "--seed", str(seed), "--out", out_dir,
                    "--config", config_path]
        return ["verify", "--seed", str(seed),
                "--json", os.path.join(out_dir, self.output)]

    def read_records(self, out_dir: str) -> list:
        """The output file as plain JSON-able records.

        Fits: one list of CSV fields per row.  verify: the report array.
        """
        path = os.path.join(out_dir, self.output)
        if self.is_fit:
            with open(path, newline="", encoding="utf-8") as fh:
                rows = list(csv.DictReader(fh))
            return [{k: row[k] for k in _FIT_KEYS + ("mode_coverage",) + _FIT_VALUES}
                    for row in rows]
        with open(path, encoding="utf-8") as fh:
            return [{k: r[k] for k in ("name", "passed", "observed")}
                    for r in json.load(fh)]

    def failures(self, records: list) -> int:
        """Failed operations: NaN cells for the fits, failed checks for verify."""
        if self.is_fit:
            return sum(int(r["mode_coverage"]) < 0
                       or not all(math.isfinite(float(r[k])) for k in _FIT_VALUES)
                       for r in records)
        return sum(not r["passed"] for r in records)

    def _split(self, record) -> tuple:
        """(identity, values compared exactly, values compared within tolerance)."""
        if self.is_fit:
            return (tuple(record[k] for k in _FIT_KEYS), [record["mode_coverage"]],
                    [float(record[k]) for k in _FIT_VALUES])
        return ((record["name"], len(record["observed"])), [record["passed"]],
                record["observed"])

    def compare(self, records: list, reference: list) -> tuple[int, int]:
        """(mismatches, values compared) of records against a reference.

        A missing, extra or misplaced record counts once per value it holds.
        """
        mismatches = compared = 0
        for got, ref in itertools.zip_longest(records, reference):
            ref_id, ref_exact, ref_close = self._split(ref if ref is not None else got)
            n = len(ref_exact) + len(ref_close)
            compared += n
            if got is None or ref is None or self._split(got)[0] != ref_id:
                mismatches += n
                continue
            _, exact, close = self._split(got)
            mismatches += sum(a != b for a, b in zip(exact, ref_exact))
            mismatches += sum(not _close(a, b) for a, b in zip(close, ref_close))
        return mismatches, compared


def _close(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= ATOL + RTOL * abs(b)


WORKLOADS = {w.name: w for w in (
    Workload("fit-mix", "exp1", "exp1.csv"),
    Workload("fit-contam", "exp4", "exp4.csv"),
    Workload("verify", "verify", "verify.json"),
)}
