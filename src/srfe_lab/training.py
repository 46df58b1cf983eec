"""Adam, tau schedules and the variational fitting loop.

The loop fits a mean-field Gaussian to a fixed target density by stochastic
gradient descent on one of three objectives: the clamped free-energy loss,
forward KL (target samples, score-mean gradient) or reverse KL (pathwise).
Initialization is mu = 0, log_sigma = 0; every run is reproducible from its
seed because noise batches are drawn from one seeded generator in a fixed
per-iteration order.

train_lockstep fits many jobs together, one iteration of every job at a
time.  Jobs that would draw equal noise share one draw per iteration:
srfe and reverse-KL jobs with the same seed, batch size and dimension
(standard normal eps), and forward-KL jobs with the same seed, batch size
and target (target samples).  train is the one-job case.

Jobs are split into one interleaved share per CPU this process may run on
(job i to share i mod P).  The calling process fits share 0; each other
share is fitted the same way in a child made with os.fork, which redraws
its noise from the same seeds and pickles its outcomes back over a pipe.
Every job therefore gets the outcome it gets alone.  With one CPU, one job,
no os.fork, or a second Python thread alive (its locks would be copied
held), there is one share and no fork.
"""

from __future__ import annotations

import numbers
import os
import pickle
import sys
import threading
from dataclasses import dataclass, field

import numpy as np

from srfe_lab.discrete import _check_tau_open
from srfe_lab.estimators import (
    forward_kl_grad,
    forward_kl_loss,
    reverse_kl_grad,
    reverse_kl_loss,
    srfe_mc_step,
)
from srfe_lab.gaussians import DiagonalGaussian

__all__ = ["Adam", "TauSchedule", "TrainConfig", "TrainResult", "train",
           "train_lockstep", "OBJECTIVES"]

OBJECTIVES = ("srfe", "forward_kl", "reverse_kl")


class Adam:
    """Stock Adam with bias correction, on a flat parameter vector."""

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, dim: int, lr: float = 0.05):
        self.lr = lr
        self.m = np.zeros(dim)
        self.v = np.zeros(dim)
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


@dataclass(frozen=True)
class TauSchedule:
    """tau as a function of the iteration counter t = 1..total.

    kinds: "fixed" holds value; "linear" interpolates start -> end along
    (t-1)/(total-1) hitting both endpoints exactly; "stepwise" splits the
    run into len(taus) equal segments and holds each level in turn.
    """

    kind: str
    value: float = 0.5
    start: float = 0.3
    end: float = 0.9
    taus: tuple[float, ...] = (0.3, 0.5, 0.7, 0.9)

    def __post_init__(self):
        if self.kind not in ("fixed", "linear", "stepwise"):
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        if self.kind == "stepwise" and len(self.taus) == 0:
            raise ValueError("stepwise schedule needs at least one level")
        # every tau the schedule can return, so a bad one fails here and
        # not on the step that reaches it
        _check_tau_open({"fixed": self.value,
                         "linear": (self.start, self.end),
                         "stepwise": self.taus}[self.kind])

    @classmethod
    def fixed(cls, value: float) -> "TauSchedule":
        return cls(kind="fixed", value=value)

    @classmethod
    def linear(cls, start: float, end: float) -> "TauSchedule":
        return cls(kind="linear", start=start, end=end)

    @classmethod
    def stepwise(cls, taus=(0.3, 0.5, 0.7, 0.9)) -> "TauSchedule":
        return cls(kind="stepwise", taus=tuple(taus))

    def tau_at(self, t: int, total: int) -> float:
        if not (1 <= t <= total):
            raise ValueError(f"t must lie in [1, {total}], got {t}")
        if self.kind == "fixed":
            return self.value
        frac = 0.0 if total == 1 else (t - 1) / (total - 1)
        if self.kind == "linear":
            # convex combination is exact at both endpoints
            return self.start * (1.0 - frac) + self.end * frac
        idx = min(int(frac * len(self.taus)), len(self.taus) - 1)
        return self.taus[idx]

    def describe(self) -> str:
        if self.kind == "fixed":
            return f"fixed_{self.value:g}"
        if self.kind == "linear":
            return f"linear_{self.start:g}_to_{self.end:g}"
        return "stepwise_" + "_".join(f"{t:g}" for t in self.taus)


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


class _Fit:
    """One job's fitting state: mu, log_sigma, Adam, loss history and clamp
    count, advanced one iteration at a time by step."""

    def __init__(self, target, cfg: TrainConfig):
        self.target, self.cfg = target, cfg
        self.dim = target.dim
        self.mu = np.zeros(self.dim)
        self.log_sigma = np.zeros(self.dim)
        self.opt = Adam(2 * self.dim, lr=cfg.learning_rate)
        self.losses = np.empty(cfg.iterations)
        self.clamp_count = 0

    def stream(self) -> tuple:
        """The key of the noise stream this job reads: equal keys draw
        equal batches from equal seeds."""
        cfg = self.cfg
        if cfg.objective == "forward_kl":
            return ("sample", cfg.seed, cfg.batch_size, id(self.target))
        return ("normal", cfg.seed, cfg.batch_size, self.dim)

    def draw(self, rng: np.random.Generator) -> np.ndarray:
        if self.cfg.objective == "forward_kl":
            return np.asarray(self.target.sample(self.cfg.batch_size, rng))
        return rng.standard_normal((self.cfg.batch_size, self.dim))

    def step(self, t: int, noise: np.ndarray) -> None:
        """Iteration t (1-based) on noise: eps for srfe and reverse KL,
        target samples for forward KL."""
        cfg, target = self.cfg, self.target
        q = DiagonalGaussian(self.mu, self.log_sigma)
        if cfg.objective == "srfe":
            tau = cfg.schedule.tau_at(t, cfg.iterations)
            report, grad = srfe_mc_step(q, target, tau, noise)
            loss = report.loss
            self.clamp_count += int(report.clamped)
        elif cfg.objective == "forward_kl":
            loss = forward_kl_loss(q, target, noise)
            grad = forward_kl_grad(q, noise)
        else:
            loss = reverse_kl_loss(q, target, noise)
            grad = reverse_kl_grad(q, target, noise)

        if not np.isfinite(loss):
            raise RuntimeError(f"non-finite loss at step {t}")
        flat_grad = np.concatenate([grad.d_mu, grad.d_log_sigma])
        if not np.all(np.isfinite(flat_grad)):
            raise RuntimeError(f"non-finite gradient at step {t}")
        self.losses[t - 1] = loss
        theta = self.opt.step(np.concatenate([self.mu, self.log_sigma]),
                              flat_grad)
        self.mu, self.log_sigma = theta[:self.dim], theta[self.dim:]

    def result(self) -> TrainResult:
        return TrainResult(model=DiagonalGaussian(self.mu, self.log_sigma),
                           loss_history=self.losses,
                           clamp_count=self.clamp_count)


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
    fits = [_Fit(target, cfg) for target, cfg in jobs]
    keys = [fit.stream() for fit in fits]
    rngs = {}
    for fit, key in zip(fits, keys):
        rngs.setdefault(key, np.random.default_rng(fit.cfg.seed))
    outcomes: list = [None] * len(fits)
    active = list(range(len(fits)))
    t = 0
    while active:
        if parent is not None and os.getppid() != parent:
            os._exit(1)  # no one is left to read this share's outcomes
        t += 1
        # each batch is dropped after its last reader, so no more batches
        # are alive during a step than one job alone would hold
        last_reader = {keys[i]: i for i in active}
        batches = {}
        still = []
        for i in active:
            fit, key = fits[i], keys[i]
            noise = batches.get(key)
            if noise is None:
                noise = batches[key] = fit.draw(rngs[key])
                noise.flags.writeable = False
            if last_reader[key] == i:
                del batches[key]
            try:
                fit.step(t, noise)
            except (RuntimeError, FloatingPointError) as exc:
                outcomes[i] = exc
            else:
                if t < fit.cfg.iterations:
                    still.append(i)
                else:
                    outcomes[i] = fit.result()
        active = still
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

    Jobs whose noise streams have the same key (see _Fit.stream) share one
    generator seeded with their seed, which draws one read-only batch per
    iteration while any of them is still fitting; a job with fewer
    iterations stops early and has read a prefix of the stream.  A
    RuntimeError or FloatingPointError from a job's step ends that job
    only and takes its place in the returned list; any other exception
    propagates.

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

    target is duck-typed: dim, the dimension d of its points, for every
    objective; then log_prob(x) and sample(n, rng) for forward KL,
    log_prob(x) and score_x(x) for reverse KL, log_prob_and_score(x) for
    srfe (x of shape (n, d); see srfe_lab.estimators).  The srfe loss clamps
    its overlap estimate into [F_CLAMP_LOW, F_CLAMP_HIGH] of
    srfe_lab.estimators.

    Raises RuntimeError naming the step index if a loss or a gradient is
    non-finite (the clamp makes the free-energy loss finite by construction,
    so this can only trip on a degenerate target).  This is train_lockstep
    on one job.
    """
    (outcome,) = train_lockstep([(target, cfg)])
    if isinstance(outcome, Exception):
        raise outcome
    return outcome
