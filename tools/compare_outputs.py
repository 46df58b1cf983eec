"""Check that this tree writes the same output files as a parent commit.

    python3 tools/compare_outputs.py [--parent REV] [--default]

Extracts REV (default HEAD) with `git archive` into a temporary directory
and runs the srfe-lab CLI from the parent's src/ and from this tree's src/,
each in its own temporary directory, on a fixed matrix:

  - exp1-exp4 with the config {"iterations": 150} and --dump-loss, seeds
    0-2;
  - exp4 with the config {"iterations": 3, "batch_size": 50,
    "learning_rate": 1e308} and --dump-loss, seed 0, whose first Adam steps
    overflow, so every cell fails and the run exits 1 with 12 NaN rows;
  - exp2 with the config {"iterations": 20, "trials": 9, "tau_grid": [0.3,
    0.7]} and --dump-loss, seed 0, whose aggregate averages more trials
    than the 8-term block of numpy's pairwise summation;
  - verify --json, seeds 0-59;
  - verify --inject-failure --json, seed 0 (the negative control, which
    exits 1);
  - density-grid --out, on the w = 0.2 contaminated mixture over a grid
    that crosses the outlier box's faces, and on a model with non-zero
    --mu and --log-sigma;
  - with --default, also exp1-exp4 at the default config with
    --dump-loss, seed 0 (the whole comparison then took about 90-120 s on
    2 CPUs).

Every run writes under its own directory, named after the run; its exit
code and stdout go to stdout.txt there, and its stderr to stderr.txt, with
the path of the tree it ran from replaced by <tree> so that a warning which
names a source file reads the same from both trees.  The two file sets are
then compared byte for byte: prints the number of identical
files, or each missing, extra or differing file with its first differing
line, and exits 1 on any difference.  This tree's uncommitted files are
run as they are.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pairs import ROOT, extract

EXPERIMENTS = ("exp1", "exp2", "exp3", "exp4")
# the config file of each sweep run, by name
CONFIGS = {"reduced.json": {"iterations": 150},
           "overflow.json": {"iterations": 3, "batch_size": 50,
                             "learning_rate": 1e308},
           "trials9.json": {"iterations": 20, "trials": 9,
                            "tau_grid": [0.3, 0.7]}}


def runs(default: bool) -> list[tuple[str, list[str]]]:
    """(name, CLI arguments) of every run of the matrix."""
    out = []
    for exp in EXPERIMENTS:
        for seed in range(3):
            name = f"{exp}_iterations150_seed{seed}"
            out.append((name, [exp, "--config", "reduced.json", "--seed",
                               str(seed), "--out", name, "--dump-loss"]))
    name = "exp4_overflow_seed0"
    out.append((name, ["exp4", "--config", "overflow.json", "--seed", "0",
                       "--out", name, "--dump-loss"]))
    name = "exp2_trials9_seed0"
    out.append((name, ["exp2", "--config", "trials9.json", "--seed", "0",
                       "--out", name, "--dump-loss"]))
    for seed in range(60):
        name = f"verify_seed{seed}"
        out.append((name, ["verify", "--seed", str(seed), "--json",
                           f"{name}/report.json"]))
    name = "verify_inject_failure_seed0"
    out.append((name, ["verify", "--inject-failure", "--seed", "0", "--json",
                       f"{name}/report.json"]))
    # the equals forms keep argparse from reading a leading minus sign as
    # an option prefix
    for name, target in (
            ("density_grid_mixture_w0.2",
             ["mixture", "--outlier-weight", "0.2", "--bounds=-12,12,-12,12"]),
            ("density_grid_model",
             ["model", "--mu=0.5,-1.5", "--log-sigma=0.3,-0.4",
              "--bounds=-4,4,-5,3"])):
        out.append((name, ["density-grid", "--target", *target, "--res", "61",
                           "--out", f"{name}/grid.csv"]))
    if default:
        for exp in EXPERIMENTS:
            name = f"{exp}_default_seed0"
            out.append((name, [exp, "--seed", "0", "--out", name,
                               "--dump-loss"]))
    return out


def run_matrix(tree: Path, work: Path, matrix) -> None:
    """Every run of matrix with the srfe_lab of tree/src, under work."""
    work.mkdir()
    for file, config in CONFIGS.items():
        (work / file).write_text(json.dumps(config))
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    for name, args in matrix:
        (work / name).mkdir()
        proc = subprocess.run([sys.executable, "-m", "srfe_lab.cli", *args],
                              cwd=work, env=env, capture_output=True,
                              text=True)
        (work / name / "stdout.txt").write_text(
            f"exit {proc.returncode}\n{proc.stdout}")
        (work / name / "stderr.txt").write_text(
            proc.stderr.replace(str(tree), "<tree>"))


def first_difference(a: bytes, b: bytes) -> str:
    """The first line where a and b differ, with its number."""
    left, right = a.splitlines(), b.splitlines()
    for i, (x, y) in enumerate(zip(left, right), start=1):
        if x != y:
            return f"line {i}: {x[:120]!r} != {y[:120]!r}"
    return (f"line {min(len(left), len(right)) + 1}: one file ends "
            f"({len(left)} against {len(right)} lines)")


def compare(parent: Path, change: Path) -> int:
    """Print the comparison of the two trees' outputs; the number of
    differences."""
    files = {side: {p.relative_to(root) for p in root.rglob("*")
                    if p.is_file()}
             for side, root in (("parent", parent), ("change", change))}
    bad = 0
    for rel in sorted(files["parent"] ^ files["change"]):
        where = "parent" if rel in files["parent"] else "change"
        print(f"only in {where}: {rel}")
        bad += 1
    same = 0
    for rel in sorted(files["parent"] & files["change"]):
        a, b = (parent / rel).read_bytes(), (change / rel).read_bytes()
        if a == b:
            same += 1
        else:
            print(f"differs: {rel}: {first_difference(a, b)}")
            bad += 1
    print(f"{same} files identical, {bad} differences")
    return bad


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", default="HEAD")
    parser.add_argument("--default", action="store_true",
                        help="also run the four default-config sweeps")
    args = parser.parse_args(argv)
    matrix = runs(args.default)
    with tempfile.TemporaryDirectory(prefix="compare_outputs_") as tmp:
        tmp = Path(tmp)
        extract(args.parent, tmp / "parent_tree")
        for side, tree in (("parent", tmp / "parent_tree"), ("change", ROOT)):
            print(f"running {len(matrix)} runs from the {side} tree",
                  flush=True)
            run_matrix(tree, tmp / side, matrix)
        return 1 if compare(tmp / "parent", tmp / "change") else 0


if __name__ == "__main__":
    sys.exit(main())
