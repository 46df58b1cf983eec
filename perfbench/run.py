"""srfe-lab benchmark.

    python3 perfbench/run.py --workload {fit-mix,fit-contam,verify,all}
        [--seed N] [--seconds S] [--trace 0|1] [--iterations N]

Load model: closed loop, one client.  Each measured run is a fresh child
process (bench_child.py) that imports srfe_lab from src/ of this checkout
and runs the workload once through srfe_lab.cli.main.  Children run one
after another for about --seconds, after one untimed set-up-only
child that warms the file cache; the end-to-end metrics are the medians over
them, setup_s with set-up-only children added until it has SETUP_SAMPLES
values.  With --trace 1 one more, traced child follows, and
the per-layer metrics come from its spans.

Every child runs the package's cell and check pools with one worker
(SRFE_LAB_THREADS=1) and every BLAS/OpenMP pool with one thread.  On a
small shared machine a two-thread run, whose threads pass the interpreter
lock back and forth, stalls whenever either core is taken away: on a shared
2-vCPU virtual machine, fit-mix children spread from 6.0 to 9.4 s with
two workers against 8.1 to 8.9 s with one.  Outputs go to a scratch
directory under .bench_tmp/ that is deleted when the run ends.

`--workload all --trace 1` runs every workload and prints every metric.
Printed: every metric by name and unit, the output hashes, the provenance,
and as the last line one JSON object {correct, attempted, failed, metrics}.
The exit code is 1 when an output is wrong: a failed cell or check, a value
off the recorded reference, or output hashes that differ between runs.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

from bench_trace import PER_LAYER
from bench_workloads import ITERATIONS, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src", "srfe_lab")
REFS = os.path.join(HERE, "refs")
SCRATCH_ROOT = os.path.join(ROOT, ".bench_tmp")
CHILD_TIMEOUT_S = 170
# setup_s is the median of at least this many set-ups, also for workloads
# whose timed child fills the run alone
SETUP_SAMPLES = 9

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
)
# per-layer metrics added here to those of the traced child
RUN_PER_LAYER = (
    ("trace.overhead_s", "s", "lower"),
    ("failed_frac", "ratio", "lower"),
    ("ref_mismatch", "count", "lower"),
    ("ref_compared", "count", "higher"),
)
UNITS = {name: unit for name, unit in END_TO_END}
UNITS.update((name, unit) for name, unit, _ in PER_LAYER + RUN_PER_LAYER)


class BenchError(RuntimeError):
    pass


@contextlib.contextmanager
def scratch_dir():
    """A fresh directory under .bench_tmp/; both go when the run ends."""
    os.makedirs(SCRATCH_ROOT, exist_ok=True)
    path = tempfile.mkdtemp(dir=SCRATCH_ROOT)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            os.rmdir(SCRATCH_ROOT)
        except OSError:
            pass  # another run still uses it


def thread_env() -> dict[str, str]:
    env = dict(os.environ)
    env["SRFE_LAB_THREADS"] = "1"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(workload: str, seed: int, iterations: int, work_dir: str,
              mode: str = "run") -> dict:
    """One fresh process running the workload once (mode "run" or "trace")
    or only setting it up (mode "setup"); its parsed result."""
    os.makedirs(work_dir)
    cmd = [sys.executable, os.path.join(HERE, "bench_child.py"), workload,
           str(seed), str(iterations), work_dir, mode]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=thread_env(), text=True,
                              capture_output=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} child exceeded {CHILD_TIMEOUT_S} s")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} child exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def load_reference(workload: str, iterations: int, seed: int) -> list | None:
    path = os.path.join(REFS, f"{workload}.json")
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as fh:
        ref = json.load(fh)
    if WORKLOADS[workload].is_fit and ref["iterations"] != iterations:
        return None
    return ref["seeds"].get(str(seed))


def measure(workload: str, seed: int, seconds: float, iterations: int,
            trace: bool, scratch: str) -> dict:
    """All runs of one workload, checked and summarized."""
    spec = WORKLOADS[workload]
    runs = []
    # warm-up: the first import after a pause reads the sources from disk
    run_child(workload, seed, iterations,
              os.path.join(scratch, f"{workload}-warmup"), "setup")
    # children follow one another while another one ends nearer to
    # `seconds` than stopping now does, so that a long child does not make
    # the run overshoot by almost its own length
    start = time.monotonic()
    elapsed = 0.0
    while not runs or elapsed + elapsed / len(runs) / 2 < seconds:
        runs.append(run_child(workload, seed, iterations,
                              os.path.join(scratch, f"{workload}-{len(runs)}")))
        elapsed = time.monotonic() - start
    setups = [r["setup_s"] for r in runs]
    while len(setups) < SETUP_SAMPLES:
        setups.append(run_child(workload, seed, iterations, os.path.join(
            scratch, f"{workload}-setup-{len(setups)}"), "setup")["setup_s"])
    traced = None
    if trace:
        traced = run_child(workload, seed, iterations,
                           os.path.join(scratch, f"{workload}-traced"), "trace")

    reference = load_reference(workload, iterations, seed)
    attempted = failed = mismatch = compared = 0
    problems = []
    for run in runs + ([traced] if traced else []):
        n_failed = spec.failures(run["records"])
        attempted += len(run["records"])
        failed += n_failed
        if run["exit_code"] != (1 if n_failed else 0):
            problems.append(f"CLI exit code {run['exit_code']} with "
                            f"{n_failed} failed operations")
        if reference is not None:
            bad, n = spec.compare(run["records"], reference)
            mismatch += bad
            compared += n
    hashes = {json.dumps(r["hashes"], sort_keys=True)
              for r in runs + ([traced] if traced else [])}
    if len(hashes) != 1:
        problems.append(f"output hashes differ between runs: {sorted(hashes)}")
    if failed:
        problems.append(f"{failed} of {attempted} operations failed")
    if mismatch:
        problems.append(f"{mismatch} of {compared} values off the reference")

    end_to_end = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(r["wall_s"] for r in runs),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
    }
    per_layer = None
    if traced:
        per_layer = dict(traced["per_layer"])
        per_layer["trace.overhead_s"] = traced["wall_s"] - end_to_end["wall_s"]
        per_layer["failed_frac"] = failed / attempted
        per_layer["ref_mismatch"] = mismatch
        per_layer["ref_compared"] = compared
    return {
        "workload": workload, "runs": runs, "traced": traced,
        "setups": len(setups),
        "attempted": attempted, "failed": failed, "mismatch": mismatch,
        "compared": compared, "has_reference": reference is not None,
        "hashes": runs[0]["hashes"], "problems": problems,
        "end_to_end": end_to_end, "per_layer": per_layer,
    }


def provenance(names: list[str], seed: int, iterations: int,
               versions: dict) -> dict:
    digest = hashlib.sha256()
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    timeout=30).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    env = thread_env()
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        **versions,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
        # settings passed to the CLI; all others are the package defaults
        "config": {n: WORKLOADS[n].config(iterations) for n in names},
        "threads": {k: env[k] for k in ("SRFE_LAB_THREADS", "OMP_NUM_THREADS",
                                        "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def report(result: dict, trace: bool) -> None:
    runs = result["runs"]
    walls = [r["wall_s"] for r in runs]
    print(f"== {result['workload']}: {len(runs)} timed runs"
          + (" + 1 traced run" if trace else ""))
    for name, unit in END_TO_END:
        n = result["setups"] if name == "setup_s" else len(runs)
        print(f"  {name:<40} {result['end_to_end'][name]:.6g} {unit}"
              f"  (median of {n})")
    print(f"  {'wall_s of each run':<40} " + " ".join(f"{w:.4g}" for w in walls))
    print(f"  {'failed_frac':<40} {result['failed'] / result['attempted']:.6g} ratio"
          f"  ({result['failed']}/{result['attempted']})")
    ref_note = "" if result["has_reference"] else "  (no reference for this seed and size)"
    print(f"  {'ref_mismatch':<40} {result['mismatch']} count"
          f"  (of {result['compared']} values){ref_note}")
    for fname, digest in result["hashes"].items():
        print(f"  sha256 {fname:<33} {digest}")
    if result["per_layer"]:
        for name, value in result["per_layer"].items():
            print(f"  {name:<40} {value:.6g} {UNITS[name]}")
    for problem in result["problems"]:
        print(f"  WRONG: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--iterations", type=int, default=ITERATIONS,
                        help="training iterations per fit cell (smoke tests "
                             "use a tiny value)")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "cli.py")):
        print(f"run.py: no srfe_lab sources at {SRC}", file=sys.stderr)
        return 2
    # on SIGTERM unwind normally, so that the running child is killed and
    # the scratch directory removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        with scratch_dir() as scratch:
            results = [measure(n, args.seed, args.seconds, args.iterations,
                               bool(args.trace), scratch) for n in names]
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    for result in results:
        report(result, bool(args.trace))
    print("provenance: " + json.dumps(provenance(
        names, args.seed, args.iterations, results[0]["runs"][0]["versions"])))

    metrics = {}
    for result in results:
        values = result["per_layer"] if args.trace else result["end_to_end"]
        prefix = f"{result['workload']}." if len(results) > 1 else ""
        metrics.update({prefix + name: {"value": value, "unit": UNITS[name]}
                        for name, value in values.items()})
    correct = not any(r["problems"] for r in results)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }, allow_nan=False))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
