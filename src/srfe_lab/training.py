"""Adam, tau schedules and the variational fitting loop.

The loop fits a mean-field Gaussian to a fixed target density by stochastic
gradient descent on one of three objectives: the clamped free-energy loss,
forward KL (target samples, score-mean gradient) or reverse KL (pathwise).
Initialization is mu = 0, log_sigma = 0; every run is reproducible from its
seed because noise batches are drawn from one seeded generator in a fixed
per-iteration order.

train_lockstep fits many jobs together, one iteration of every job at a
time.  Jobs that would draw equal noise read one draw per iteration:
srfe and reverse-KL jobs with the same seed, batch size and dimension
(standard normal eps), and forward-KL jobs with the same seed, batch size
and target (target samples).  train is the one-job case.

The jobs that read one noise stream form a stack (_Stack), and each
iteration of a stack is one array program over all its jobs, built from
the row kernels of srfe_lab.estimators.  theta and the Adam moments are
(J, 2, d) arrays; x for every row is one C-ordered (d, J, n) buffer; there
is one target pass per distinct target of a srfe/reverse-KL stack, over
that target's rows, and one target.log_prob per forward-KL stack; and Adam
takes one step for the whole stack.  A stack's rows are its jobs grouped by
target, in job order otherwise, so each target's rows are one slice of the
buffer.  Each row computes exactly what its job computes stepped alone, so
stacking changes no number.

Jobs are split into one interleaved share per CPU this process may run on
(job i to share i mod P).  The calling process fits share 0; each other
share is fitted the same way in a child made with os.fork, which redraws
its noise from the same seeds and pickles its outcomes back over a pipe.
Every job therefore gets the outcome it gets alone.  With one CPU, one job,
no os.fork, or a second Python thread alive (its locks would be copied
held), there is one share and no fork.  Shares are processes, not threads:
a stack step is about a hundred short numpy calls, so worker threads
would mostly pass the interpreter lock between them rather than overlap
work.
"""

from __future__ import annotations

import math
import numbers
import os
import pickle
import sys
import threading
from dataclasses import dataclass, field

import numpy as np

from srfe_lab.discrete import _check_tau_open
# srfe_mc_step and the KL losses and gradients are the one-row case of the
# stack kernels and unused here, but perfbench/bench_trace.py patches them
# on training by name
from srfe_lab.estimators import (_forward_rows, _q_rows, _q_side_rows,
                                 _runs, _target_rows, forward_kl_grad,
                                 forward_kl_loss, reverse_kl_grad,
                                 reverse_kl_loss, srfe_mc_step)
from srfe_lab.gaussians import DiagonalGaussian

__all__ = ["Adam", "TauSchedule", "TrainConfig", "TrainResult", "train",
           "train_lockstep", "OBJECTIVES"]

OBJECTIVES = ("srfe", "forward_kl", "reverse_kl")


class Adam:
    """Stock Adam with bias correction, elementwise on a parameter array
    of the given shape, at learning rate lr (TrainConfig holds the default).
    A stack of fits passes (J, ...) parameters and lr as a column that
    broadcasts against them, one rate per row."""

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, shape, lr: float):
        self.lr = lr
        self.m = np.zeros(shape)
        self.v = np.zeros(shape)
        self.t = 0

    def step(self, params: np.ndarray, grad: np.ndarray) -> np.ndarray:
        grad = np.asarray(grad, dtype=np.float64)
        if not np.all(np.isfinite(grad)):
            raise ValueError("non-finite gradient passed to Adam")
        self.t += 1
        self.m = self.beta1 * self.m + (1.0 - self.beta1) * grad
        self.v = self.beta2 * self.v + (1.0 - self.beta2) * grad * grad
        m_hat = self.m / (1.0 - self.beta1 ** self.t)
        v_hat = self.v / (1.0 - self.beta2 ** self.t)
        return params - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

    def take(self, rows) -> None:
        """Keep the given rows of a stack's moments (and of its lr column)."""
        self.m, self.v = self.m[rows], self.v[rows]
        if np.ndim(self.lr):
            self.lr = self.lr[rows]


@dataclass(frozen=True)
class TauSchedule:
    """tau as a function of the iteration counter t = 1..total.

    kinds: "linear" interpolates between its two levels along
    (t-1)/(total-1), hitting both exactly; "stepwise" splits the run into
    len(levels) equal segments and holds each level in turn; "fixed" is
    stepwise with one level.
    """

    kind: str
    levels: tuple[float, ...]

    def __post_init__(self):
        n = len(self.levels)
        count_ok = {"fixed": n == 1, "linear": n == 2,
                    "stepwise": n >= 1}.get(self.kind)
        if count_ok is None:
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        if not count_ok:
            raise ValueError(f"a {self.kind} schedule cannot have {n} levels")
        # every tau the schedule can return, so a bad one fails here and
        # not on the step that reaches it
        _check_tau_open(self.levels)

    @classmethod
    def fixed(cls, value: float) -> "TauSchedule":
        return cls("fixed", (value,))

    @classmethod
    def linear(cls, start: float, end: float) -> "TauSchedule":
        return cls("linear", (start, end))

    @classmethod
    def stepwise(cls, taus=(0.3, 0.5, 0.7, 0.9)) -> "TauSchedule":
        return cls("stepwise", tuple(taus))

    def tau_at(self, t: int, total: int) -> float:
        if not (1 <= t <= total):
            raise ValueError(f"t must lie in [1, {total}], got {t}")
        frac = 0.0 if total == 1 else (t - 1) / (total - 1)
        if self.kind == "linear":
            start, end = self.levels
            # convex combination is exact at both endpoints
            return start * (1.0 - frac) + end * frac
        idx = min(int(frac * len(self.levels)), len(self.levels) - 1)
        return self.levels[idx]

    def describe(self) -> str:
        sep = "_to_" if self.kind == "linear" else "_"
        return f"{self.kind}_" + sep.join(f"{t:g}" for t in self.levels)


@dataclass(frozen=True)
class TrainConfig:
    objective: str = "srfe"
    schedule: TauSchedule = field(default_factory=lambda: TauSchedule.fixed(0.5))
    iterations: int = 2000
    batch_size: int = 5000
    learning_rate: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if self.objective not in OBJECTIVES:
            raise ValueError(f"objective must be one of {OBJECTIVES}")
        _require_count("iterations", self.iterations, 1)
        _require_count("batch_size", self.batch_size, 1)
        _require_count("seed", self.seed, 0)
        lr = self.learning_rate
        if not (_is_number(lr) and 0.0 < lr < np.inf):
            raise ValueError(
                f"learning_rate must be a positive number, got {lr!r}")


def _is_number(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _require_count(name: str, value, low: int) -> None:
    if not (isinstance(value, numbers.Integral) and _is_number(value)
            and value >= low):
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")


@dataclass(frozen=True)
class TrainResult:
    model: DiagonalGaussian
    loss_history: np.ndarray
    clamp_count: int


def _stream(target, cfg: TrainConfig) -> tuple:
    """The key of the noise stream a job reads: equal keys draw equal
    batches from equal seeds."""
    if cfg.objective == "forward_kl":
        return ("sample", cfg.seed, cfg.batch_size, id(target))
    return ("normal", cfg.seed, cfg.batch_size, target.dim)


class _Stack:
    """The jobs of one share that read one noise stream, stepped together.

    Row j of theta (J, 2, d), mu and log_sigma, belongs to job jobs[j];
    Adam holds (J, 2, d) moments.  Rows leave the stack when their job
    fails or finishes.
    """

    def __init__(self, jobs: list, rows: list):
        by_target = {}
        for i in rows:
            by_target.setdefault(id(jobs[i][0]), []).append(i)
        self.jobs = [i for group in by_target.values() for i in group]
        self.targets = [jobs[i][0] for i in self.jobs]
        self.cfgs = [jobs[i][1] for i in self.jobs]
        cfg = self.cfgs[0]
        self.forward = cfg.objective == "forward_kl"
        self.rng = np.random.default_rng(cfg.seed)
        self.theta = np.zeros((len(self.jobs), 2, self.targets[0].dim))
        self.opt = Adam(self.theta.shape, lr=np.array(
            [c.learning_rate for c in self.cfgs])[:, None, None])
        self.losses = [np.empty(c.iterations) for c in self.cfgs]
        self.clamps = [0] * len(self.jobs)

    def draw(self) -> np.ndarray:
        """The next read-only batch of the stream: eps, or target samples
        for forward KL."""
        cfg = self.cfgs[0]
        if self.forward:
            noise = np.asarray(self.targets[0].sample(cfg.batch_size,
                                                      self.rng))
        else:
            noise = self.rng.standard_normal((cfg.batch_size,
                                              self.theta.shape[2]))
        noise.flags.writeable = False
        return noise

    def step(self, t: int, noise: np.ndarray) -> list:
        """Iteration t (1-based) of every row on noise.  Returns (job,
        outcome) for each job that failed or finished at this step."""
        failed = {}  # row -> exception
        if self.forward:
            losses, clamped, grad = self._forward_step(noise, failed)
        else:
            losses, clamped, grad = self._q_side_step(t, noise, failed)
        finite = np.isfinite(grad).all(axis=(1, 2))
        for j, loss in enumerate(losses):
            if j in failed:
                continue
            if not math.isfinite(loss):
                failed[j] = RuntimeError(f"non-finite loss at step {t}")
            elif not finite[j]:
                failed[j] = RuntimeError(f"non-finite gradient at step {t}")
            else:
                self.losses[j][t - 1] = loss
                self.clamps[j] += clamped[j]
        ended = [(self.jobs[j], exc) for j, exc in failed.items()]
        if failed:
            keep = [j for j in range(len(self.jobs)) if j not in failed]
            self._take(keep)
            grad = grad[keep]
        if self.jobs:
            self.theta = self.opt.step(self.theta, grad)
        done = [j for j, cfg in enumerate(self.cfgs) if cfg.iterations == t]
        for j in done:
            ended.append((self.jobs[j], TrainResult(
                model=DiagonalGaussian(*self.theta[j]),
                loss_history=self.losses[j], clamp_count=self.clamps[j])))
        if done:
            self._take([j for j in range(len(self.jobs)) if j not in done])
        return ended

    def _q_side_step(self, t: int, eps: np.ndarray, failed: dict):
        """srfe and reverse-KL rows: one transform, one target pass per
        target, one weight and gradient program."""
        x, log_q = _q_rows(self.theta, eps)
        r, score = np.empty(log_q.shape), np.empty(x.shape)
        for start, stop, _ in _runs([id(t) for t in self.targets]):
            target, rows = self.targets[start], slice(start, stop)
            try:
                _target_rows(target, x[:, rows], log_q[rows], r[rows],
                             score[:, rows])
            except (RuntimeError, FloatingPointError) as exc:
                # harmless values for rows that leave the stack anyway
                r[rows] = 0.0
                score[:, rows] = 0.0
                failed.update(dict.fromkeys(range(start, stop), exc))
        taus = [cfg.schedule.tau_at(t, cfg.iterations)
                if cfg.objective == "srfe" else 0.0 for cfg in self.cfgs]
        reports, grad, _ = _q_side_rows(self.theta, eps, r, score, taus)
        return ([rep.loss for rep in reports],
                [rep.clamped for rep in reports], grad)

    def _forward_step(self, xs: np.ndarray, failed: dict):
        """Forward-KL rows: one target.log_prob on the shared samples."""
        try:
            log_p = self.targets[0].log_prob(xs)
        except (RuntimeError, FloatingPointError) as exc:
            failed.update(dict.fromkeys(range(len(self.jobs)), exc))
            log_p = np.zeros(xs.shape[0])
        losses, grad, _ = _forward_rows(self.theta, xs, log_p)
        return losses.tolist(), [False] * len(self.jobs), grad

    def _take(self, keep: list) -> None:
        """Keep only the given rows."""
        self.theta = self.theta[keep]
        self.opt.take(keep)
        for name in ("jobs", "targets", "cfgs", "losses", "clamps"):
            setattr(self, name, [getattr(self, name)[j] for j in keep])


def _cpu_count() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _share_count(n_jobs: int) -> int:
    """How many processes fit n_jobs: one per allowed CPU, at most one per
    job, and one where forking is unavailable or unsafe."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    return max(1, min(n_jobs, _cpu_count()))


def _fit_lockstep(jobs, parent: int | None = None) -> list:
    """train_lockstep's loop, in this process.  A forked share passes the
    pid of the process that reads its outcomes, and exits once that
    process is gone."""
    streams = {}
    for i, (target, cfg) in enumerate(jobs):
        streams.setdefault(_stream(target, cfg), []).append(i)
    stacks = [_Stack(jobs, rows) for rows in streams.values()]
    outcomes: list = [None] * len(jobs)
    t = 0
    while stacks:
        if parent is not None and os.getppid() != parent:
            os._exit(1)  # no one is left to read this share's outcomes
        t += 1
        # one batch is alive at a time: each is dropped after its stack's step
        for stack in stacks:
            for i, outcome in stack.step(t, stack.draw()):
                outcomes[i] = outcome
        stacks = [stack for stack in stacks if stack.jobs]
    return outcomes


def _fork_share(jobs, parent: int):
    """Fit jobs in a forked child; its pid and the read end of the pipe
    that carries ("done", outcomes) or ("raise", exception) back."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        # the child never returns into the caller's code
        code = 1
        try:
            os.close(read_fd)
            try:
                payload = ("done", _fit_lockstep(jobs, parent))
            except Exception as exc:
                payload = ("raise", exc)
            with os.fdopen(write_fd, "wb") as fh:
                pickle.dump(payload, fh, pickle.HIGHEST_PROTOCOL)
            code = 0
        finally:
            os._exit(code)
    os.close(write_fd)
    return pid, os.fdopen(read_fd, "rb")


def train_lockstep(jobs) -> list[TrainResult | Exception]:
    """Fit every (target, TrainConfig) job, all advancing one iteration at a
    time in job order.  Each job gets exactly the result train gives it.

    Jobs whose noise streams have the same key (see _stream) form one stack
    with one generator seeded with their seed, which draws one read-only
    batch per iteration while any of them is still fitting; a job with
    fewer iterations stops early and has read a prefix of the stream.

    Failures end jobs, not the stack.  A job whose loss or gradient is
    non-finite at step t ends with RuntimeError("non-finite loss at step
    t") or RuntimeError("non-finite gradient at step t") and leaves the
    stack with its Adam rows; the other rows step on.  A RuntimeError or
    FloatingPointError raised by a target pass ends every job of that pass
    (the jobs of the stack with that target) with that exception.  A
    failed job's exception takes its place in the returned list.  Any
    other exception propagates.

    The jobs are fitted in _share_count interleaved shares: share 0 in
    this process, every other share in a forked child (see the module
    docstring).  Outcomes come back in job order.
    """
    jobs = list(jobs)
    shares = _share_count(len(jobs))
    outcomes: list = [None] * len(jobs)
    children = []  # (share, pid, pipe read end), until reaped
    try:
        if shares > 1:
            # a child that prints, a warning say, would also write out its
            # copy of what is still buffered
            for stream in (sys.stdout, sys.stderr):
                if stream is not None:
                    stream.flush()
        parent = os.getpid()
        for s in range(1, shares):
            children.append((s, *_fork_share(jobs[s::shares], parent)))
        outcomes[::shares] = _fit_lockstep(jobs[::shares])
        while children:
            s, pid, fh = children[0]
            with fh:
                data = fh.read()
            _, status = os.waitpid(pid, 0)
            children.pop(0)
            code = os.waitstatus_to_exitcode(status)
            if code != 0:
                raise ChildProcessError(
                    f"training share {s} exited with status {code}")
            kind, value = pickle.loads(data)
            if kind == "raise":
                raise value
            outcomes[s::shares] = value
    finally:
        if children:  # the run failed midway
            # imported here: at module level it would add about a
            # millisecond to every command's start-up
            import signal
            for _, pid, fh in children:
                fh.close()
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    return outcomes


def train(target, cfg: TrainConfig) -> TrainResult:
    """Fit a mean-field Gaussian to target under cfg.  Deterministic per seed.

    target is duck-typed with four members: dim, log_prob(x),
    log_prob_and_score(x) and sample(n, rng), x of shape (n, d) (see
    srfe_lab.estimators).  srfe and reverse KL read log_prob_and_score,
    forward KL log_prob and sample.  The
    srfe loss clamps its overlap estimate into [F_CLAMP_LOW, F_CLAMP_HIGH]
    of srfe_lab.estimators.

    Raises RuntimeError naming the step index if a loss or a gradient is
    non-finite (the clamp makes the free-energy loss finite by construction,
    so this can only trip on a degenerate target).  This is train_lockstep
    on one job.
    """
    (outcome,) = train_lockstep([(target, cfg)])
    if isinstance(outcome, Exception):
        raise outcome
    return outcome
