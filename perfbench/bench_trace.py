"""Span tracing of srfe-lab from outside the package, and the per-layer
metrics computed from the spans.

install() replaces, for the life of the process, each public function of a
layer on the name its caller looks it up by (for example
srfe_lab.training.srfe_mc_step), the public methods of the model classes,
and the thread pools of experiments and checks with one that opens a span
per cell or check.  Nothing in the package is edited.

A span is (id, name, start, end, parent, group, data).  Each thread keeps
its own stack of open spans; a task submitted to a pool takes the span that
submitted it as parent, and every span of one cell or check carries that
task's group id.  Spans stay in memory until metrics() reads them.
"""
from __future__ import annotations

import functools
import itertools
import statistics
import threading
import time
from concurrent.futures import ThreadPoolExecutor

_ID, _NAME, _START, _END, _PARENT, _GROUP, _DATA = range(7)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._groups = itertools.count(1)
        self._local = threading.local()

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack, local.root, local.group = [], 0, 0
        return local

    def wrap(self, fn, name: str, note=None, cpu: bool = False):
        """fn inside a span; note(args, result) gives a dict of counts."""
        spans, ids, clock = self.spans, self._ids, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            local = self._state()
            stack = local.stack
            parent = stack[-1] if stack else local.root
            sid = next(ids)
            stack.append(sid)
            cpu0 = time.process_time() if cpu else 0.0
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
            data = note(args, result) if note else None
            if cpu:
                data = {"cpu": time.process_time() - cpu0, **(data or {})}
            spans.append((sid, name, start, end, parent, local.group, data))
            return result

        return traced

    def task(self, fn, name: str, note):
        """fn as a pool task: a span whose parent is the submitting span."""
        state = self._state()
        parent = state.stack[-1] if state.stack else state.root
        group = next(self._groups)
        submitted = time.perf_counter()

        def run(*args, **kwargs):
            local = self._state()
            saved = local.stack, local.root, local.group
            local.stack, local.root, local.group = [], parent, group
            wait = time.perf_counter() - submitted

            def noted(a, result):
                return {**note(a, result), "wait": wait}

            try:
                return self.wrap(fn, name, noted)(*args, **kwargs)
            finally:
                local.stack, local.root, local.group = saved

        return run

    def executor(self, name: str, note):
        tracer = self

        class TracedExecutor(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                return super().submit(tracer.task(fn, name, note), *args, **kwargs)

        return TracedExecutor


def _rows(args, result):
    x = args[1]
    shape = getattr(x, "shape", None)
    return {"rows": shape[0] if shape is not None and len(shape) == 2 else 1}


def _patch_function(tracer, module, attr, name, note=None, cpu=False):
    setattr(module, attr, tracer.wrap(getattr(module, attr), name, note, cpu))


def _patch_class(tracer, cls, layer, extra=(), notes=None):
    for attr, raw in list(vars(cls).items()):
        method = callable(raw) or isinstance(raw, classmethod)
        if not (method and not attr.startswith("_") or attr in extra):
            continue
        name = f"{layer}.{cls.__name__}.{attr}"
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(tracer.wrap(raw.__func__, name)))
        else:
            setattr(cls, attr, tracer.wrap(raw, name, (notes or {}).get(attr)))


def install() -> Tracer:
    """Install every wrapper; returns the tracer that collects the spans."""
    from srfe_lab import (checks, cli, discrete, estimators, evaluation,
                          experiments, gaussians, training)

    t = Tracer()
    rows = {"log_prob": _rows, "score_x": _rows}
    _patch_class(t, gaussians.GaussianMixture, "gaussians", notes=rows)
    _patch_class(t, gaussians.ContaminatedMixture, "gaussians", notes=rows)
    _patch_class(t, gaussians.DiagonalGaussian, "gaussians")
    _patch_class(t, discrete.DiscreteDist, "discrete", extra=("__post_init__",))
    _patch_class(t, training.Adam, "training")

    # discrete kernels, both where discrete calls itself and where checks
    # calls them
    for attr in discrete.__all__:
        fn = getattr(discrete, attr)
        if callable(fn) and not isinstance(fn, type):
            _patch_function(t, discrete, attr, f"discrete.{attr}")
            if hasattr(checks, attr):
                _patch_function(t, checks, attr, f"discrete.{attr}")

    for attr in ("exact_second_moment", "estimator_second_moment"):
        _patch_function(t, estimators, attr, f"estimators.{attr}")
    _patch_function(t, checks, "exact_second_moment", "estimators.exact_second_moment")

    def step_rows(args, result):
        return {"rows": args[3].shape[0], "clamped": bool(result[0].clamped)}

    def sample_rows(args, result):
        return {"rows": args[2].shape[0]}

    _patch_function(t, training, "srfe_mc_step", "estimators.srfe_mc_step", step_rows)
    _patch_function(t, training, "reverse_kl_loss", "estimators.reverse_kl_loss", sample_rows)
    _patch_function(t, training, "reverse_kl_grad", "estimators.reverse_kl_grad")
    _patch_function(t, training, "forward_kl_loss", "estimators.forward_kl_loss", sample_rows)
    _patch_function(t, training, "forward_kl_grad", "estimators.forward_kl_grad")

    _patch_function(t, experiments, "train", "training.train")
    _patch_function(t, experiments, "evaluate", "evaluation.evaluate")
    for attr in ("mode_coverage", "ess", "entropy_error", "test_log_lik"):
        _patch_function(t, evaluation, attr, f"evaluation.{attr}")
    for attr in ("write_rows", "dump_history"):
        _patch_function(t, experiments, attr, "experiments.csv")

    def cell_outcome(args, result):
        return {"failed": result[0].metrics.mode_coverage < 0}

    def check_outcome(args, result):
        return {"check": result.name}

    experiments.ThreadPoolExecutor = t.executor("experiments.cell", cell_outcome)
    checks.ThreadPoolExecutor = t.executor("checks.task", check_outcome)
    for attr in dir(checks):
        if attr.startswith("check_"):
            _patch_function(t, checks, attr, f"checks.{attr}")

    def battery_outcome(args, result):
        return {"failed": sum(not r.passed for r in result)}

    _patch_function(t, cli, "run_all", "checks.run_all", battery_outcome, cpu=True)
    for key, fn in list(cli._EXPERIMENTS.items()):
        cli._EXPERIMENTS[key] = t.wrap(fn, f"experiments.run_{key}", cpu=True)
    _patch_function(t, cli, "main", "cli.main")
    return t


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

CHECK_TASKS = (
    "kl_limits", "expansions", "fisher_metric_sigma_0.5",
    "fisher_metric_sigma_1", "fisher_metric_sigma_2", "fisher_metric_simplex",
    "tail_bounds", "tail_bounds_mc", "kl_upper_bounds", "gradient_identity",
    "monotone_equivalence", "not_f_divergence_tau_0.3",
    "not_f_divergence_tau_0.5", "not_f_divergence_tau_0.9",
    "second_moment_bounds",
)

# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = (
    ("gaussians.mixture.log_prob.rows", "count", "lower"),
    ("gaussians.mixture.score_x.rows", "count", "lower"),
    ("gaussians.mixture.self_s", "s", "lower"),
    ("gaussians.contaminated.log_prob.self_s", "s", "lower"),
    ("gaussians.contaminated.score_x.self_s", "s", "lower"),
    ("gaussians.diagonal.self_s", "s", "lower"),
    ("gaussians.mixture_rows_per_sample", "ratio", "lower"),
    ("estimators.srfe_step.calls", "count", "lower"),
    ("estimators.srfe_step.self_s", "s", "lower"),
    ("estimators.srfe_step.p50_ms", "ms", "lower"),
    ("estimators.srfe_step.tail_ms", "ms", "lower"),
    ("estimators.srfe_step.tail_pct", "%", "higher"),
    ("estimators.clamped_frac", "ratio", "lower"),
    ("estimators.reverse_kl.self_s", "s", "lower"),
    ("estimators.forward_kl.self_s", "s", "lower"),
    ("estimators.second_moment.self_s", "s", "lower"),
    ("training.steps", "count", "higher"),
    ("training.train.self_s", "s", "lower"),
    ("training.adam.calls", "count", "lower"),
    ("training.adam.self_s", "s", "lower"),
    ("evaluation.evaluate.calls", "count", "lower"),
    ("evaluation.ess.self_s", "s", "lower"),
    ("evaluation.entropy_error.self_s", "s", "lower"),
    ("evaluation.test_log_lik.self_s", "s", "lower"),
    ("evaluation.mode_coverage.self_s", "s", "lower"),
    ("experiments.cells", "count", "higher"),
    ("experiments.failed_cells", "count", "lower"),
    ("experiments.cell_s.p50", "s", "lower"),
    ("experiments.cell_s.max", "s", "lower"),
    ("experiments.cell_wait_s", "s", "lower"),
    ("experiments.overlap", "ratio", "higher"),
    ("experiments.cpu_per_wall", "ratio", "higher"),
    ("experiments.csv_s", "s", "lower"),
    *((f"checks.{task}.s", "s", "lower") for task in CHECK_TASKS),
    ("checks.critical_s", "s", "lower"),
    ("checks.overlap", "ratio", "higher"),
    ("checks.cpu_per_wall", "ratio", "higher"),
    ("checks.failed", "count", "lower"),
    ("discrete.calls", "count", "lower"),
    ("discrete.self_s", "s", "lower"),
    ("discrete.us_per_call", "us", "lower"),
    ("discrete.DiscreteDist.constructions", "count", "lower"),
    ("discrete.srfe_discrete.self_s", "s", "lower"),
    ("discrete.cr_associated.self_s", "s", "lower"),
    ("discrete.tail_bound.self_s", "s", "lower"),
    ("discrete.kl_upper_bound_gap.self_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
)


def self_times(spans: list[tuple]) -> dict[int, float]:
    """Span id -> duration minus the part of it that child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        children.setdefault(s[_PARENT], []).append((s[_START], s[_END]))
    out = {}
    for s in spans:
        lo, hi = s[_START], s[_END]
        covered, reach = 0.0, lo
        for a, b in sorted(children.get(s[_ID], ())):
            a, b = max(a, reach), min(b, hi)
            if b > a:
                covered += b - a
                reach = b
        out[s[_ID]] = (hi - lo) - covered
    return out


def _tail(durations: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with 10 calls beyond it."""
    n = len(durations)
    if n <= 10:
        return (max(durations) if durations else 0.0), 0.0
    ordered = sorted(durations)
    return ordered[n - 11], 100.0 * (n - 10) / n


def metrics(spans: list[tuple]) -> dict[str, float]:
    """Every PER_LAYER metric except those run.py adds.  Layers the
    workload does not reach report 0."""
    own = self_times(spans)
    by_name: dict[str, list[tuple]] = {}
    for s in spans:
        by_name.setdefault(s[_NAME], []).append(s)

    def named(*names):
        return [s for n in names for s in by_name.get(n, ())]

    def self_s(*names):
        return sum(own[s[_ID]] for s in named(*names))

    def prefixed(prefix):
        return [n for n in by_name if n.startswith(prefix)]

    def total(spans_, key):
        return sum(s[_DATA].get(key, 0) for s in spans_ if s[_DATA])

    def ratio(a, b):
        return a / b if b else 0.0

    m: dict[str, float] = {}
    mix_lp = total(named("gaussians.GaussianMixture.log_prob"), "rows")
    mix_sx = total(named("gaussians.GaussianMixture.score_x"), "rows")
    drawn = total(named("estimators.srfe_mc_step", "estimators.reverse_kl_loss",
                        "estimators.forward_kl_loss"), "rows")
    m["gaussians.mixture.log_prob.rows"] = mix_lp
    m["gaussians.mixture.score_x.rows"] = mix_sx
    m["gaussians.mixture.self_s"] = self_s(*prefixed("gaussians.GaussianMixture."))
    m["gaussians.contaminated.log_prob.self_s"] = self_s("gaussians.ContaminatedMixture.log_prob")
    m["gaussians.contaminated.score_x.self_s"] = self_s("gaussians.ContaminatedMixture.score_x")
    m["gaussians.diagonal.self_s"] = self_s(*prefixed("gaussians.DiagonalGaussian."))
    m["gaussians.mixture_rows_per_sample"] = ratio(mix_lp + mix_sx, drawn)

    steps = named("estimators.srfe_mc_step")
    step_ms = [1e3 * (s[_END] - s[_START]) for s in steps]
    tail_ms, tail_pct = _tail(step_ms)
    m["estimators.srfe_step.calls"] = len(steps)
    m["estimators.srfe_step.self_s"] = self_s("estimators.srfe_mc_step")
    m["estimators.srfe_step.p50_ms"] = statistics.median(step_ms) if steps else 0.0
    m["estimators.srfe_step.tail_ms"] = tail_ms
    m["estimators.srfe_step.tail_pct"] = tail_pct
    m["estimators.clamped_frac"] = ratio(total(steps, "clamped"), len(steps))
    m["estimators.reverse_kl.self_s"] = self_s("estimators.reverse_kl_loss",
                                               "estimators.reverse_kl_grad")
    m["estimators.forward_kl.self_s"] = self_s("estimators.forward_kl_loss",
                                               "estimators.forward_kl_grad")
    m["estimators.second_moment.self_s"] = self_s("estimators.exact_second_moment",
                                                  "estimators.estimator_second_moment")

    m["training.steps"] = len(named("training.Adam.step"))
    m["training.train.self_s"] = self_s("training.train")
    m["training.adam.calls"] = len(named("training.Adam.step"))
    m["training.adam.self_s"] = self_s("training.Adam.step")

    m["evaluation.evaluate.calls"] = len(named("evaluation.evaluate"))
    for part in ("ess", "entropy_error", "test_log_lik", "mode_coverage"):
        m[f"evaluation.{part}.self_s"] = self_s(f"evaluation.{part}")

    cells = named("experiments.cell")
    cell_s = [s[_END] - s[_START] for s in cells]
    sweeps = named(*prefixed("experiments.run_"))
    sweep_wall = sum(s[_END] - s[_START] for s in sweeps)
    m["experiments.cells"] = len(cells)
    m["experiments.failed_cells"] = total(cells, "failed")
    m["experiments.cell_s.p50"] = statistics.median(cell_s) if cells else 0.0
    m["experiments.cell_s.max"] = max(cell_s, default=0.0)
    m["experiments.cell_wait_s"] = total(cells, "wait")
    m["experiments.overlap"] = ratio(sum(cell_s), sweep_wall)
    m["experiments.cpu_per_wall"] = ratio(total(sweeps, "cpu"), sweep_wall)
    m["experiments.csv_s"] = sum(s[_END] - s[_START] for s in named("experiments.csv"))

    tasks = named("checks.task")
    task_s = {s[_DATA]["check"]: s[_END] - s[_START] for s in tasks}
    battery = named("checks.run_all")
    battery_wall = sum(s[_END] - s[_START] for s in battery)
    for task in CHECK_TASKS:
        m[f"checks.{task}.s"] = task_s.get(task, 0.0)
    m["checks.critical_s"] = max(task_s.values(), default=0.0)
    m["checks.overlap"] = ratio(sum(task_s.values()), battery_wall)
    m["checks.cpu_per_wall"] = ratio(total(battery, "cpu"), battery_wall)
    m["checks.failed"] = total(battery, "failed")

    layer = prefixed("discrete.")
    m["discrete.calls"] = len(named(*layer))
    m["discrete.self_s"] = self_s(*layer)
    m["discrete.us_per_call"] = 1e6 * ratio(m["discrete.self_s"], m["discrete.calls"])
    m["discrete.DiscreteDist.constructions"] = len(named("discrete.DiscreteDist.__post_init__"))
    for fn in ("srfe_discrete", "cr_associated", "tail_bound", "kl_upper_bound_gap"):
        m[f"discrete.{fn}.self_s"] = self_s(f"discrete.{fn}")

    m["cli.main.self_s"] = self_s("cli.main")
    m["trace.spans"] = len(spans)
    return m
