"""Run one workload once, in this fresh process, and print the result.

    python3 bench_child.py WORKLOAD SEED ITERATIONS WORK_DIR MODE

Imports srfe_lab from src/ of the checkout this file sits in, runs the
workload through srfe_lab.cli.main with its outputs under WORK_DIR/out, and
prints one JSON object as the last line of standard output.  MODE "trace"
traces the run; MODE "setup" stops after the set-up and reports only it.
run.py sets the thread environment; this file only reads it.
"""
from __future__ import annotations

import time

_T0 = time.perf_counter()

import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

from bench_workloads import WORKLOADS  # noqa: E402

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def main() -> int:
    name, seed, iterations, work_dir, mode = sys.argv[1:]
    workload = WORKLOADS[name]

    sys.path.insert(0, SRC)
    import numpy
    import scipy
    import srfe_lab
    import srfe_lab.cli

    if not os.path.abspath(srfe_lab.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"srfe_lab imported from {srfe_lab.__file__}, not {SRC}")
    out_dir = os.path.join(work_dir, "out")
    os.makedirs(out_dir)
    config_path = os.path.join(work_dir, "config.json")
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump(workload.config(int(iterations)), fh)
    argv = workload.argv(int(seed), out_dir, config_path)
    setup_s = time.perf_counter() - _T0
    if mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    if mode == "trace":
        import bench_trace
        tracer = bench_trace.install()
    start = time.perf_counter()
    exit_code = srfe_lab.cli.main(argv)
    wall_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    per_layer = bench_trace.metrics(tracer.spans) if mode == "trace" else None

    hashes = {}
    for fname in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, fname), "rb") as fh:
            hashes[fname] = hashlib.sha256(fh.read()).hexdigest()
    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "exit_code": exit_code,
        "hashes": hashes,
        "records": workload.read_records(out_dir),
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
        "per_layer": per_layer,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
