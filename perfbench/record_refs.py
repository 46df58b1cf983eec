"""Record the reference outputs that run.py compares every run against.

    python3 perfbench/record_refs.py --seeds 20

Runs each workload once per seed 0..N-1 at the benchmark's fixed config
and writes perfbench/refs/<workload>.json.  The references belong to the
commit that defined the benchmark; re-record them only when a change is
meant to alter the numbers, and say so in that change.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

from bench_workloads import ITERATIONS, WORKLOADS
from run import REFS, run_child, scratch_dir


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=20)
    args = parser.parse_args()
    os.makedirs(REFS, exist_ok=True)
    with scratch_dir() as scratch:
        for name, spec in WORKLOADS.items():
            seeds = {}
            for seed in range(args.seeds):
                run = run_child(name, seed, ITERATIONS,
                                os.path.join(scratch, f"{name}-{seed}"))
                if spec.failures(run["records"]):
                    print(f"{name} seed {seed}: failed operations, not recorded",
                          file=sys.stderr)
                    return 1
                seeds[str(seed)] = run["records"]
                print(f"{name} seed {seed}: {len(run['records'])} records, "
                      f"{run['wall_s']:.2f} s", flush=True)
            ref = {"workload": name,
                   "iterations": ITERATIONS if spec.is_fit else None,
                   "seeds": seeds}
            with open(os.path.join(REFS, f"{name}.json"), "w", encoding="utf-8") as fh:
                write_reference(ref, fh)
    return 0


def write_reference(ref: dict, fh) -> None:
    """JSON with one line per record, so that a re-recording diffs by record."""
    head = {k: v for k, v in ref.items() if k != "seeds"}
    fh.write(json.dumps(head)[:-1] + ', "seeds": {\n')
    for i, (seed, records) in enumerate(ref["seeds"].items()):
        fh.write((",\n" if i else "") + f" {json.dumps(seed)}: [\n  ")
        fh.write(",\n  ".join(json.dumps(r) for r in records) + "\n ]")
    fh.write("\n}}\n")


if __name__ == "__main__":
    sys.exit(main())
