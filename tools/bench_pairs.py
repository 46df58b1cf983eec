"""Time one benchmark workload on a parent commit and on this tree, in pairs.

    python3 tools/bench_pairs.py --workload fit-mix [--parent REV]
        [--pairs N] [--seed N] [--iterations N]

Extracts REV (default HEAD) with `git archive` into a `parent` directory
and copies this tree's files (tracked and untracked, not ignored, without
.git) into a `change` directory beside it, then runs
perfbench/bench_child.py once from each per pair, with the order
alternating: even pairs run the parent first, odd pairs this tree first.
Both sides run from paths of equal length because the checkout's location
alone moves peak_rss_mb: one tree read verify at a median of 39.66 MB
from a 10-character path and 39.76 / 39.72 MB from copies at 23- and
35-character paths (5 runs each; fit-contam moved by -0.08 / -0.13 MB).
Each side first runs one untimed warm-up child.  Children get the thread
environment perfbench/run.py gives them (one worker, one BLAS thread).

Prints one line per pair, then one JSON object: for setup_s, wall_s and
peak_rss_mb, each side's runs, median and quartiles
(statistics.quantiles(n=4, method="inclusive")), the parent's IQR, the
change of the median in percent, the number of pairs in which this tree
read lower, and whether that is a gain that may be claimed (see
summary).  It also reports whether every child exited 0 and wrote
the same output files, byte for byte.  This tree's uncommitted files are
measured as they are.  Standard library only; perfbench/ is read, not
changed.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
METRICS = ("setup_s", "wall_s", "peak_rss_mb")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def extract(rev: str, into: Path) -> None:
    """The files of commit rev, written under into."""
    data = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                          check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        tar.extractall(into, filter="data")


def copy_tree(into: Path) -> None:
    """This tree's files as they are, tracked or untracked but not ignored,
    copied under into."""
    names = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others",
         "--exclude-standard"],
        cwd=ROOT, check=True, capture_output=True).stdout
    for name in filter(None, names.decode().split("\0")):
        if (ROOT / name).is_file():  # a deleted tracked file is skipped
            (into / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, into / name)


def run_child(tree: Path, workload: str, seed: int, iterations: int,
              work_dir: Path) -> dict:
    """One fresh bench_child.py from tree; its parsed result."""
    env = dict(os.environ, SRFE_LAB_THREADS="1",
               **dict.fromkeys(THREAD_VARS, "1"))
    proc = subprocess.run(
        [sys.executable, str(tree / "perfbench" / "bench_child.py"),
         workload, str(seed), str(iterations), str(work_dir), "run"],
        cwd=tree, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{tree}: child exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def quartiles(runs: list[float]) -> list[float]:
    return statistics.quantiles(runs, n=4, method="inclusive")


def summary(parent: list[float], change: list[float]) -> dict:
    """One metric's runs, pair k being (parent[k], change[k]).  claim_holds
    says whether a lower reading may be claimed: this tree read lower in
    at least nine tenths of the pairs (a tie counts for neither side), and
    its median is below the parent's by more than the parent's IQR."""
    p_q, c_q = quartiles(parent), quartiles(change)
    wins = sum(c < p for p, c in zip(parent, change))
    return {
        "parent_runs": [round(v, 4) for v in parent],
        "change_runs": [round(v, 4) for v in change],
        "parent_median": round(p_q[1], 4),
        "change_median": round(c_q[1], 4),
        "parent_quartiles": [round(q, 4) for q in p_q],
        "change_quartiles": [round(q, 4) for q in c_q],
        "parent_iqr": round(p_q[2] - p_q[0], 4),
        "change_pct": round(100.0 * (c_q[1] / p_q[1] - 1.0), 1),
        "change_lower_in_pairs": wins,
        "pairs": len(parent),
        "claim_holds": (10 * wins >= 9 * len(parent)
                        and p_q[1] - c_q[1] > p_q[2] - p_q[0]),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("fit-mix", "fit-contam", "verify"))
    parser.add_argument("--parent", default="HEAD")
    parser.add_argument("--pairs", type=int, default=16)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--iterations", type=int, default=150)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")

    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        tmp = Path(tmp)
        sides = {"parent": tmp / "parent", "change": tmp / "change"}
        extract(args.parent, sides["parent"])
        copy_tree(sides["change"])
        runs = {side: [] for side in sides}
        count = 0

        def one(side: str, timed: bool = True) -> None:
            nonlocal count
            count += 1
            result = run_child(sides[side], args.workload, args.seed,
                               args.iterations, tmp / f"run_{count}")
            if timed:
                runs[side].append(result)

        for side in sides:
            one(side, timed=False)
        for k in range(args.pairs):
            order = ("parent", "change") if k % 2 == 0 else ("change",
                                                             "parent")
            for side in order:
                one(side)
            print(f"pair {k + 1:2d} ({order[0]} first): " + "  ".join(
                f"{m} {runs['parent'][-1][m]:.4f} -> "
                f"{runs['change'][-1][m]:.4f}" for m in METRICS),
                flush=True)

    everything = runs["parent"] + runs["change"]
    report = {
        "workload": args.workload,
        "parent": subprocess.run(["git", "rev-parse", args.parent], cwd=ROOT,
                                 check=True, capture_output=True,
                                 text=True).stdout.strip(),
        "seed": args.seed,
        "iterations": args.iterations,
        "order": "alternating: even pairs run the parent first, odd pairs "
                 "the change first; one untimed warm-up child per side",
        "all_exit_0": all(r["exit_code"] == 0 for r in everything),
        "outputs_identical": all(r["hashes"] == everything[0]["hashes"]
                                 for r in everything),
        "metrics": {m: summary([r[m] for r in runs["parent"]],
                               [r[m] for r in runs["change"]])
                    for m in METRICS},
    }
    print(json.dumps(report, indent=1))
    return 0 if report["all_exit_0"] and report["outputs_identical"] else 1


if __name__ == "__main__":
    sys.exit(main())
