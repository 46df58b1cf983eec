"""Benchmark experiment drivers.

Four studies on a fixed three-mode Gaussian target: objective comparison
(exp1), interpolation-weight sweep with repeated trials (exp2), weight
schedules (exp3), and contamination robustness (exp4).  Each driver
trains the diagonal-Gaussian model for every cell, evaluates it, writes
one CSV, and hands the rows back for programmatic use.

Cells are independent given their seeds.  A sweep trains all its cells
with one training.train_lockstep call: each iteration steps every cell
once, in cell order, and cells that read equal noise share one draw.  srfe
and reverse-KL cells with the same seed, batch size and dimension share
standard-normal eps, so all cells of exp3 and exp4 and the srfe and
reverse-KL cells of exp1 read one stream, and exp2 reads one per trial
seed; forward-KL cells share per seed, batch size and target.  The runner
splits the cells into one interleaved share per allowed CPU, fits share 0
in the calling process and the others in forked children, and puts the
outcomes back in cell order.  Every cell sees the noise it would see alone,
so the CSVs are byte-identical across runs with the same seed, whatever the
number of CPUs.  The output directory is made first, then the target
entropies are estimated, the cells trained, and the trained cells evaluated
in cell order, in the calling process.  A fitting step is about a hundred
short numpy calls, so worker threads would mostly pass the interpreter lock
between them rather than overlap work; processes do not share it.
"""
from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass, replace

import numpy as np

from .discrete import _check_tau_open
from .evaluation import N_ENTROPY, EvalMetrics, evaluate, target_entropy
from .gaussians import ContaminatedMixture, GaussianMixture
# unused here, but perfbench/bench_trace.py patches experiments.train by name
from .training import (TauSchedule, TrainConfig, _is_number,
                       _require_count, train, train_lockstep)

TARGET_MEANS = ((-3.0, 0.0), (3.0, 0.0), (0.0, 4.0))
TARGET_VARIANCE = 0.5
TARGET_WEIGHTS = (0.3, 0.3, 0.4)

EXP1_TAUS = (0.1, 0.3, 0.5, 0.7, 0.9)
EXP2_TAUS = tuple(round(0.1 * k, 1) for k in range(1, 10))
EXP4_TAUS = (0.01, 0.5, 0.99)
EXP4_WEIGHTS = (0.0, 0.1, 0.2, 0.3)

CSV_HEADER = ("method", "tau", "schedule", "outlier_weight", "mode_coverage",
              "ess", "entropy_error", "test_log_lik", "final_loss",
              "clamped_steps", "trial", "seed")
AGGREGATE_HEADER = ("tau", "mode_coverage_mean", "mode_coverage_std",
                    "ess_mean", "ess_std", "entropy_error_mean",
                    "entropy_error_std", "test_log_lik_mean",
                    "test_log_lik_std")


def benchmark_target() -> GaussianMixture:
    """The shared three-mode target all four experiments fit."""
    return GaussianMixture(means=np.array(TARGET_MEANS),
                           variance=TARGET_VARIANCE,
                           weights=np.array(TARGET_WEIGHTS))


@dataclass(frozen=True)
class RunConfig:
    """Experiment settings; None fields fall back to per-experiment defaults.

    Every value is checked here, so a bad one raises ValueError before any
    cell runs.  Grid entries become floats and must differ to the 6
    significant digits that name their cells and loss files.
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
        _train_cfg(self, "srfe", TauSchedule.fixed(0.5), self.seed)
        if self.trials is not None:
            _require_count("trials", self.trials, 1)
        for name in ("tau_grid", "outlier_weights"):
            values = getattr(self, name)
            if values is None:
                continue
            if not (isinstance(values, (list, tuple))
                    and all(map(_is_number, values))):
                raise ValueError(
                    f"{name} must be a list of numbers, got {values!r}")
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


@dataclass(frozen=True)
class ExperimentResult:
    rows: list[ResultRow]
    aggregate: list[AggregateRow] | None
    histories: dict[str, np.ndarray]
    failures: dict[str, str]  # cell label -> why it failed to train


_FAILED = EvalMetrics(mode_coverage=-1, ess=math.nan, entropy_error=math.nan,
                      test_log_lik=math.nan)


@dataclass(frozen=True)
class _Cell:
    label: str
    method: str
    tau: float | None
    schedule_name: str | None
    outlier_weight: float | None
    train_cfg: TrainConfig
    target: object
    trial: int = 0


def _run_cells(cells: list[_Cell],
               modes: GaussianMixture) -> ExperimentResult:
    """Train every cell in lockstep, then evaluate them in cell order.

    The target entropy is estimated once per (target, seed), on the
    seed + 2 stream, before training (so every cell's target needs
    sample(n, rng)), and handed to evaluate.  A cell whose
    training raised RuntimeError or FloatingPointError becomes a NaN row,
    and its label maps to the exception text in failures.
    """
    # Before training, not after: each estimate allocates and frees a
    # 1.6 MB sample array, which raises glibc's heap trim threshold.  Below
    # it, the heap top was handed back to the system after every step and
    # faulted in again (default-config exp4: 1.4 million page faults and
    # 2.5 s of system time, against 19 thousand and 0.05 s).
    entropies: dict[tuple[int, int], float] = {}
    for cell in cells:
        key = (id(cell.target), cell.train_cfg.seed)
        if key not in entropies:
            entropies[key] = target_entropy(
                cell.target, N_ENTROPY, np.random.default_rng(key[1] + 2))
    outcomes = train_lockstep([(c.target, c.train_cfg) for c in cells])
    rows, histories, failures = [], {}, {}
    for cell, outcome in zip(cells, outcomes):
        seed = cell.train_cfg.seed
        if isinstance(outcome, Exception):
            # keep the sweep going; NaNs flag the failed cell in the CSV
            metrics, loss, clamped, history = _FAILED, math.nan, -1, np.empty(0)
            failures[cell.label] = str(outcome)
        else:
            metrics = evaluate(outcome.model, cell.target, modes, seed,
                               entropies[(id(cell.target), seed)])
            loss, clamped = float(outcome.loss_history[-1]), outcome.clamp_count
            history = np.asarray(outcome.loss_history)
        rows.append(ResultRow(cell.method, cell.tau, cell.schedule_name,
                              cell.outlier_weight, metrics, loss, clamped,
                              cell.trial, seed))
        histories[cell.label] = history
    return ExperimentResult(rows=rows, aggregate=None, histories=histories,
                            failures=failures)


def _execute(cells: list[_Cell], cfg: RunConfig, modes: GaussianMixture,
             csv_name: str) -> ExperimentResult:
    # before training, so an unwritable out_dir fails before any work
    os.makedirs(cfg.out_dir, exist_ok=True)
    result = _run_cells(cells, modes)
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
        (r.method, r.tau, r.schedule, r.outlier_weight,
         r.metrics.mode_coverage, r.metrics.ess, r.metrics.entropy_error,
         r.metrics.test_log_lik, r.final_loss, r.clamped_steps, r.trial,
         r.seed)
        for r in rows))


def dump_history(path: str, history: np.ndarray) -> None:
    _write_file(path, ("step", "loss"), enumerate(history, start=1))


def _train_cfg(cfg: RunConfig, objective: str, schedule: TauSchedule,
               seed: int, **defaults) -> TrainConfig:
    """The RunConfig training fields that are set, over the experiment's
    defaults, over TrainConfig's."""
    settings = {name: getattr(cfg, name)
                for name in ("iterations", "batch_size", "learning_rate")
                if getattr(cfg, name) is not None}
    return TrainConfig(objective=objective, schedule=schedule, seed=seed,
                       **{**defaults, **settings})


def run_exp1(cfg: RunConfig) -> ExperimentResult:
    """Objective comparison: forward KL, reverse KL, and the interpolated
    loss across a small weight grid, one run each."""
    target = benchmark_target()
    taus = cfg.tau_grid if cfg.tau_grid is not None else EXP1_TAUS
    cells = [
        _Cell("forward_kl", "forward_kl", None, None, None,
              _train_cfg(cfg, "forward_kl", TauSchedule.fixed(0.5), cfg.seed),
              target),
        _Cell("reverse_kl", "reverse_kl", None, None, None,
              _train_cfg(cfg, "reverse_kl", TauSchedule.fixed(0.5), cfg.seed),
              target),
    ]
    for tau in taus:
        cells.append(_Cell(f"srfe_tau_{tau:g}", "srfe", float(tau), None, None,
                           _train_cfg(cfg, "srfe", TauSchedule.fixed(tau), cfg.seed),
                           target))
    return _execute(cells, cfg, target, "exp1.csv")


def run_exp2(cfg: RunConfig) -> ExperimentResult:
    """Weight sweep with repeated trials; per-trial rows plus per-weight
    mean/std aggregates."""
    target = benchmark_target()
    taus = cfg.tau_grid if cfg.tau_grid is not None else EXP2_TAUS
    trials = cfg.trials if cfg.trials is not None else 3
    cells = [
        _Cell(f"srfe_tau_{tau:g}_trial_{trial}", "srfe", float(tau), None,
              None, _train_cfg(cfg, "srfe", TauSchedule.fixed(tau),
                               cfg.seed + trial),
              target, trial)
        for tau in taus for trial in range(trials)
    ]
    result = _execute(cells, cfg, target, "exp2_trials.csv")

    aggregate = []
    for tau in taus:
        group = [r.metrics for r in result.rows if r.tau == float(tau)]
        stacked = np.array([[m.mode_coverage, m.ess, m.entropy_error,
                             m.test_log_lik] for m in group])
        mean = stacked.mean(axis=0)
        std = stacked.std(axis=0)
        aggregate.append(AggregateRow(
            tau=float(tau),
            mean=EvalMetrics(float(mean[0]), float(mean[1]), float(mean[2]),
                             float(mean[3])),
            std=EvalMetrics(float(std[0]), float(std[1]), float(std[2]),
                            float(std[3]))))
    _write_file(os.path.join(cfg.out_dir, "exp2_aggregate.csv"),
                AGGREGATE_HEADER, (
                    (a.tau, a.mean.mode_coverage, a.std.mode_coverage,
                     a.mean.ess, a.std.ess, a.mean.entropy_error,
                     a.std.entropy_error, a.mean.test_log_lik,
                     a.std.test_log_lik)
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
        _Cell(sched.describe(), "srfe", None, sched.describe(), None,
              _train_cfg(cfg, "srfe", sched, cfg.seed), target)
        for sched in exp3_schedules()
    ]
    return _execute(cells, cfg, target, "exp3.csv")


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
                f"w_{w:g}_tau_{tau:g}", "srfe", float(tau), None, float(w),
                _train_cfg(cfg, "srfe", TauSchedule.fixed(tau), cfg.seed,
                           iterations=1500),
                target))
    return _execute(cells, cfg, base, "exp4.csv")


def density_grid(dist, bounds: tuple[float, float, float, float],
                 resolution: int) -> np.ndarray:
    """Exact log densities on a rectangular grid.

    Returns an (resolution^2, 3) array of (x, y, log_density) rows, x
    varying fastest.  Bounds are (x_low, x_high, y_low, y_high).
    """
    x0, x1, y0, y1 = bounds
    if not (x1 > x0 and y1 > y0):
        raise ValueError("bounds must satisfy x_low < x_high and y_low < y_high")
    if resolution < 2:
        raise ValueError("resolution must be at least 2 per axis")
    xs = np.linspace(x0, x1, resolution)
    ys = np.linspace(y0, y1, resolution)
    gx, gy = np.meshgrid(xs, ys)
    points = np.column_stack([gx.ravel(), gy.ravel()])
    return np.column_stack([points, dist.log_prob(points)])
