"""Benchmark experiment drivers.

Four studies on a fixed three-mode Gaussian target: objective comparison
(exp1), interpolation-weight sweep with repeated trials (exp2), weight
schedules (exp3), and contamination robustness (exp4).  Each driver
trains the diagonal-Gaussian model for every cell, evaluates it, writes
one CSV, and hands the rows back for programmatic use.

Cells are independent given their seeds.  A sweep fits all its cells
through training._map_shares, the one way into the fitting shares: every
cell steps once per iteration in cell order, cells that read equal noise
share one draw, and the cells are spread over the allowed CPUs; the
training module docstring states which cells share and how the work is
forked.  Every cell sees the noise it would see alone, so the CSVs are
byte-identical across runs with the same seed, whatever the number of
CPUs.  The output directory is made first.  Then each share fits its
cells, evaluates them and estimates its part of the target entropies, in
the process that fits it (see _run_cells), and the calling process
assembles the rows and writes the CSVs.
"""
from __future__ import annotations

import csv
import math
import os
from dataclasses import astuple, dataclass, fields, replace

import numpy as np

from .discrete import _check_tau_open, _is_number, _require_count
from .estimators import JOB_ERRORS
from .evaluation import (N_ENTROPY, EvalMetrics, entropy_error, evaluate,
                         target_entropy)
from .gaussians import ContaminatedMixture, GaussianMixture
# train is unused here, but perfbench/bench_trace.py patches experiments.train
# by name
from .training import TauSchedule, TrainConfig, _map_shares, train

TARGET_MEANS = ((-3.0, 0.0), (3.0, 0.0), (0.0, 4.0))
TARGET_VARIANCE = 0.5
TARGET_WEIGHTS = (0.3, 0.3, 0.4)

EXP1_TAUS = (0.1, 0.3, 0.5, 0.7, 0.9)
EXP2_TAUS = tuple(round(0.1 * k, 1) for k in range(1, 10))
EXP4_TAUS = (0.01, 0.5, 0.99)
EXP4_WEIGHTS = (0.0, 0.1, 0.2, 0.3)

def benchmark_target() -> GaussianMixture:
    """The shared three-mode target all four experiments fit."""
    return GaussianMixture(means=np.array(TARGET_MEANS),
                           variance=TARGET_VARIANCE,
                           weights=np.array(TARGET_WEIGHTS))


@dataclass(frozen=True)
class RunConfig:
    """Experiment settings; None fields fall back to per-experiment defaults.

    Every value is checked here, so a bad one raises ValueError before any
    cell runs.  A grid is not empty, and its entries become floats and
    must differ to the 6 significant digits that name their cells and loss
    files.
    """
    seed: int = 0
    iterations: int | None = None
    batch_size: int | None = None
    learning_rate: float | None = None
    tau_grid: tuple[float, ...] | None = None
    trials: int | None = None
    outlier_weights: tuple[float, ...] | None = None
    out_dir: str = "results"
    dump_loss: bool = False

    def __post_init__(self):
        # TrainConfig checks the training settings and the seed
        _train_cfg(self, "srfe", self.seed)
        if self.trials is not None:
            _require_count("trials", self.trials, 1)
        for name in ("tau_grid", "outlier_weights"):
            values = getattr(self, name)
            if values is None:
                continue
            if not (isinstance(values, (list, tuple)) and values
                    and all(map(_is_number, values))):
                raise ValueError(f"{name} must be a non-empty list of "
                                 f"numbers, got {values!r}")
            if len({format(v, "g") for v in values}) < len(values):
                raise ValueError(
                    f"{name} has repeated entries: {list(values)}")
            object.__setattr__(self, name, tuple(map(float, values)))
        _check_tau_open(list(self.tau_grid or ()))
        for w in self.outlier_weights or ():  # the mixture checks its weight
            ContaminatedMixture(base=benchmark_target(), outlier_weight=w)
        if not (isinstance(self.out_dir, str) and self.out_dir):
            raise ValueError(f"out_dir must be a path, got {self.out_dir!r}")
        if not isinstance(self.dump_loss, bool):
            raise ValueError(f"dump_loss must be true or false, "
                             f"got {self.dump_loss!r}")


@dataclass(frozen=True)
class ResultRow:
    method: str
    tau: float | None
    schedule: str | None
    outlier_weight: float | None
    metrics: EvalMetrics
    final_loss: float
    clamped_steps: int     # steps whose loss sat at a clamp bound; -1 if failed
    trial: int
    seed: int


@dataclass(frozen=True)
class AggregateRow:
    tau: float
    mean: EvalMetrics
    std: EvalMetrics


@dataclass(frozen=True, eq=False)
class ExperimentResult:
    rows: list[ResultRow]
    aggregate: list[AggregateRow] | None
    histories: dict[str, np.ndarray]
    failures: dict[str, str]  # cell label -> "failed to <stage>: <why>"


# The field orders of ResultRow and EvalMetrics are the one statement of the
# CSV columns: a cell CSV has ResultRow's fields, its metrics spelled out.
_METRICS = tuple(f.name for f in fields(EvalMetrics))
CSV_HEADER = tuple(name for f in fields(ResultRow) for name in
                   (_METRICS if f.name == "metrics" else (f.name,)))
AGGREGATE_HEADER = ("tau", *(f"{name}_{stat}" for name in _METRICS
                             for stat in ("mean", "std")))
_FAILED = replace(EvalMetrics(*[math.nan] * len(_METRICS)), mode_coverage=-1)
_ENTROPY = "estimate the target entropy"  # the stage of an entropy estimate


@dataclass(frozen=True)
class _Cell:
    label: str
    tau: float | None
    schedule_name: str | None
    outlier_weight: float | None
    train_cfg: TrainConfig
    target: object
    trial: int = 0


def _attempt(fn, *args):
    """fn(*args), or the one of JOB_ERRORS it raised."""
    try:
        return fn(*args)
    except JOB_ERRORS as exc:
        return exc


def _run_cells(cells: list[_Cell]) -> ExperimentResult:
    """Train and evaluate every cell, with the modes of benchmark_target(),
    and estimate the target entropy once per (target, seed), on the seed + 2
    stream (so every cell's target needs sample(n, rng)).

    training._map_shares fits the cells in its shares, and each share s of
    n then runs the rest of its pipeline in the process that fitted it: it
    evaluates the share's trained cells and estimates the entropies of the
    distinct (target, seed) keys keys[s::n].  The calling process merges
    what the shares return and sets each trained cell's entropy_error from
    its key's estimate.  One of JOB_ERRORS ends
    only its own cells: one from a cell's training or its evaluate fails
    that cell, and one from an entropy estimate fails every cell of that
    (target, seed).  A failed cell becomes a NaN row, and its label maps in
    failures to the stage that raised and the exception text: "failed to
    train: <text>", else "failed to estimate the target entropy: <text>",
    else "failed to evaluate: <text>".
    """
    # The estimates run last in a share, under the heap policy _map_shares
    # sets, so their draws come from the heap the fit has grown instead of
    # being mapped and unmapped.  That is why an estimate holds only its
    # draws and BLOCK_ROWS rows of temporaries: it sets the heap's peak
    # with the stack steps (README, "Memory").
    targets = {(id(c.target), c.train_cfg.seed): c.target for c in cells}
    keys = list(targets)
    modes = benchmark_target()

    def share(s: int, n: int, fitted: dict) -> dict:
        done = {}
        for i, outcome in fitted.items():
            done["train", i] = outcome
            if not isinstance(outcome, Exception):
                done["evaluate", i] = _attempt(
                    evaluate, outcome.model, cells[i].target, modes,
                    cells[i].train_cfg.seed, math.nan)
        for key in keys[s::n]:
            done[_ENTROPY, key] = _attempt(target_entropy, targets[key],
                                           N_ENTROPY,
                                           np.random.default_rng(key[1] + 2))
        return done

    done = _map_shares([(c.target, c.train_cfg) for c in cells], share)
    rows, histories, failures = [], {}, {}
    for i, cell in enumerate(cells):
        seed = cell.train_cfg.seed
        key = (id(cell.target), seed)
        stages = (("train", i), (_ENTROPY, key), ("evaluate", i))
        failure = next((f"failed to {stage}: {done[stage, k]}"
                        for stage, k in stages
                        if isinstance(done[stage, k], Exception)), None)
        if failure is not None:
            # keep the sweep going; NaNs flag the failed cell in the CSV
            metrics, loss, clamped, history = _FAILED, math.nan, -1, np.empty(0)
            failures[cell.label] = failure
        else:
            outcome = done["train", i]
            metrics = replace(done["evaluate", i], entropy_error=entropy_error(
                outcome.model, done[_ENTROPY, key]))
            loss, clamped = float(outcome.loss_history[-1]), outcome.clamp_count
            history = np.asarray(outcome.loss_history)
        rows.append(ResultRow(cell.train_cfg.objective, cell.tau,
                              cell.schedule_name, cell.outlier_weight,
                              metrics, loss, clamped, cell.trial, seed))
        histories[cell.label] = history
    return ExperimentResult(rows=rows, aggregate=None, histories=histories,
                            failures=failures)


def _execute(cells: list[_Cell], cfg: RunConfig,
             csv_name: str) -> ExperimentResult:
    # before training, so an unwritable out_dir fails before any work
    os.makedirs(cfg.out_dir, exist_ok=True)
    result = _run_cells(cells)
    write_rows(os.path.join(cfg.out_dir, csv_name), result.rows)
    if cfg.dump_loss:
        stem = csv_name.rsplit(".", 1)[0]
        for label, history in result.histories.items():
            dump_history(os.path.join(cfg.out_dir, f"{stem}_loss_{label}.csv"),
                         history)
    return result


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def write_csv(fh, header, rows) -> None:
    """The one CSV writer: header, then rows with every field formatted by
    _fmt (floats to 17 significant digits, None empty)."""
    writer = csv.writer(fh)
    writer.writerow(header)
    writer.writerows([_fmt(v) for v in row] for row in rows)


def _write_file(path: str, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        write_csv(fh, header, rows)


def write_rows(path: str, rows: list[ResultRow]) -> None:
    _write_file(path, CSV_HEADER, (
        [getattr(r.metrics if name in _METRICS else r, name)
         for name in CSV_HEADER]
        for r in rows))


def dump_history(path: str, history: np.ndarray) -> None:
    _write_file(path, ("step", "loss"), enumerate(history, start=1))


def _train_cfg(cfg: RunConfig, objective: str, seed: int,
               **defaults) -> TrainConfig:
    """The RunConfig training fields that are set, over the experiment's
    defaults (the schedule among them), over TrainConfig's."""
    settings = {name: getattr(cfg, name)
                for name in ("iterations", "batch_size", "learning_rate")
                if getattr(cfg, name) is not None}
    return TrainConfig(objective=objective, seed=seed,
                       **{**defaults, **settings})


def run_exp1(cfg: RunConfig) -> ExperimentResult:
    """Objective comparison: forward KL, reverse KL, and the interpolated
    loss across a small weight grid, one run each."""
    target = benchmark_target()
    taus = cfg.tau_grid if cfg.tau_grid is not None else EXP1_TAUS
    cells = [_Cell(objective, None, None, None,
                   _train_cfg(cfg, objective, cfg.seed), target)
             for objective in ("forward_kl", "reverse_kl")]
    for tau in taus:
        cells.append(_Cell(f"srfe_tau_{tau:g}", float(tau), None, None,
                           _train_cfg(cfg, "srfe", cfg.seed,
                                      schedule=TauSchedule.fixed(tau)),
                           target))
    return _execute(cells, cfg, "exp1.csv")


def run_exp2(cfg: RunConfig) -> ExperimentResult:
    """Weight sweep with repeated trials; per-trial rows plus per-weight
    mean/std aggregates."""
    target = benchmark_target()
    taus = cfg.tau_grid if cfg.tau_grid is not None else EXP2_TAUS
    trials = cfg.trials if cfg.trials is not None else 3
    cells = [
        _Cell(f"srfe_tau_{tau:g}_trial_{trial}", float(tau), None, None,
              _train_cfg(cfg, "srfe", cfg.seed + trial,
                         schedule=TauSchedule.fixed(tau)),
              target, trial)
        for tau in taus for trial in range(trials)
    ]
    result = _execute(cells, cfg, "exp2_trials.csv")

    block = np.array([astuple(r.metrics) for r in result.rows],
                     dtype=np.float64)
    # a failed trial is NaN in every metric, its sentinel coverage too
    block[[r.metrics is _FAILED for r in result.rows]] = math.nan
    # the rows are tau-major: a (tau, trial, metric) block
    block = block.reshape(len(taus), trials, -1)
    aggregate = [AggregateRow(float(tau), EvalMetrics(*map(float, mean)),
                              EvalMetrics(*map(float, std)))
                 for tau, mean, std in zip(taus, block.mean(axis=1),
                                           block.std(axis=1))]
    _write_file(os.path.join(cfg.out_dir, "exp2_aggregate.csv"),
                AGGREGATE_HEADER, (
                    (a.tau, *(v for pair in zip(astuple(a.mean),
                                                astuple(a.std))
                              for v in pair))
                    for a in aggregate))
    return replace(result, aggregate=aggregate)


def exp3_schedules() -> list[TauSchedule]:
    return [
        TauSchedule.fixed(0.5),
        TauSchedule.fixed(0.99),
        TauSchedule.fixed(0.01),
        TauSchedule.linear(0.3, 0.9),
        TauSchedule.linear(0.9, 0.3),
        TauSchedule.stepwise(),
    ]


def run_exp3(cfg: RunConfig) -> ExperimentResult:
    """Schedule comparison; loss histories are kept for every cell because
    the instability contrast lives in the trajectory, not the final row."""
    target = benchmark_target()
    cells = [
        _Cell(sched.describe(), None, sched.describe(), None,
              _train_cfg(cfg, "srfe", cfg.seed, schedule=sched), target)
        for sched in exp3_schedules()
    ]
    return _execute(cells, cfg, "exp3.csv")


def run_exp4(cfg: RunConfig) -> ExperimentResult:
    """Contamination robustness: outlier box mass from 0 to 0.3 against
    three interpolation weights, shorter runs."""
    base = benchmark_target()
    taus = cfg.tau_grid if cfg.tau_grid is not None else EXP4_TAUS
    weights = cfg.outlier_weights if cfg.outlier_weights is not None else EXP4_WEIGHTS
    cells = []
    for w in weights:
        target = ContaminatedMixture(base=base, outlier_weight=float(w))
        for tau in taus:
            cells.append(_Cell(
                f"w_{w:g}_tau_{tau:g}", float(tau), None, float(w),
                _train_cfg(cfg, "srfe", cfg.seed,
                           schedule=TauSchedule.fixed(tau), iterations=1500),
                target))
    return _execute(cells, cfg, "exp4.csv")


def density_grid(dist, bounds: tuple[float, float, float, float],
                 resolution: int) -> np.ndarray:
    """Exact log densities on a rectangular grid.

    Returns an (resolution^2, 3) array of (x, y, log_density) rows, x
    varying fastest.  Bounds are (x_low, x_high, y_low, y_high).
    """
    x0, x1, y0, y1 = bounds
    if not all(map(math.isfinite, bounds)):
        raise ValueError(f"bounds must be finite, got {tuple(bounds)}")
    if not (x1 > x0 and y1 > y0):
        raise ValueError("bounds must satisfy x_low < x_high and y_low < y_high")
    if resolution < 2:
        raise ValueError("resolution must be at least 2 per axis")
    xs = np.linspace(x0, x1, resolution)
    ys = np.linspace(y0, y1, resolution)
    gx, gy = np.meshgrid(xs, ys)
    points = np.column_stack([gx.ravel(), gy.ravel()])
    return np.column_stack([points, dist.log_prob(points)])
