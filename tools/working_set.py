"""Print, as JSON, the tracemalloc peak of each stage of a fitting share
and of each check of the verify battery.

    python3 tools/working_set.py

Imports srfe_lab from this tree's src/.  The stages, at the default config
and split over two shares as on a 2-CPU host:

  - step.exp1.<stream> and step.exp4.<stream>: the first step of each
    stack of the sweep's share 0 (training._split), one stack per noise
    stream ("sample" for forward KL, "normal" for the q-side rows);
  - target_entropy.<target>: one N_ENTROPY-draw estimate on the seed 2
    stream, for the mixture and for exp4's four contaminated targets;
  - evaluate: evaluation.evaluate of the model at the training start
    (mu 0, log sigma 0) on exp4's w = 0.2 target, seed 0;
  - verify.<check>: each check of checks.run_all(0), named after its
    report, on the inputs that run_all(0) draws for it.

A stage's peak is the most memory, in MiB, that it held at once above
what was held when it was called, as tracemalloc sees it (numpy reports
its array buffers to tracemalloc).  Every stage first runs once on its own
fresh inputs untraced, so lazy imports and first-call caches are not
counted, and then once traced on new inputs.  Unlike a whole process's
peak RSS, which moves by 0.1-0.2 MB with the checkout's path length and
the byte size of the imported modules, these numbers repeat from run to
run.
"""

from __future__ import annotations

import json
import math
import platform
import sys
import tracemalloc
from functools import partial
from pathlib import Path
from unittest import mock

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from srfe_lab import checks, experiments  # noqa: E402
from srfe_lab.evaluation import N_ENTROPY, evaluate, target_entropy  # noqa: E402
from srfe_lab.gaussians import DiagonalGaussian  # noqa: E402
from srfe_lab.training import _split, _Stack  # noqa: E402

SHARES = 2


def traced_peak_mib(fn) -> float:
    """The most memory fn() held at once above what was held when it was
    called, in MiB."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        return (tracemalloc.get_traced_memory()[1] - before) / 2 ** 20
    finally:
        tracemalloc.stop()


def sweep_cells(run) -> list:
    """The cells a sweep driver would run at the default config, without
    running them."""
    with mock.patch.object(experiments, "_execute",
                           lambda cells, cfg, csv_name: cells):
        return run(experiments.RunConfig())


def stages() -> dict:
    """{stage name: a function that makes fresh inputs and returns the
    zero-argument call to measure}."""
    out = {}
    cells = {name: sweep_cells(run) for name, run in
             (("exp1", experiments.run_exp1), ("exp4", experiments.run_exp4))}
    for name, sweep in cells.items():
        jobs = [(c.target, c.train_cfg) for c in sweep]
        for key, rows in _split(jobs, SHARES)[0].items():
            out[f"step.{name}.{key[0]}"] = (
                lambda rows=rows, jobs=jobs: partial(_Stack(jobs, rows).step,
                                                     1))
    mixture = experiments.benchmark_target()
    contaminated = {c.outlier_weight: c.target for c in cells["exp4"]}
    targets = {"mixture": mixture,
               **{f"w={w:g}": t for w, t in contaminated.items()}}
    for name, target in targets.items():
        out[f"target_entropy.{name}"] = (
            lambda target=target: partial(target_entropy, target, N_ENTROPY,
                                          np.random.default_rng(2)))
    q = DiagonalGaussian(mu=np.zeros(2), log_sigma=np.zeros(2))
    out["evaluate"] = lambda: partial(evaluate, q, contaminated[0.2], mixture,
                                      0, math.nan)
    for i, report in enumerate(checks.run_all(0)):
        out[f"verify.{report.name}"] = lambda i=i: checks._battery(0)[i]
    return out


def measure() -> dict:
    """{stage name: traced peak in MiB}."""
    peaks = {}
    for name, make in stages().items():
        make()()
        peaks[name] = round(traced_peak_mib(make()), 4)
    return peaks


def main() -> int:
    print(json.dumps({
        "machine": {"python": platform.python_version(),
                    "numpy": np.__version__},
        "peak_mib": measure(),
    }, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
