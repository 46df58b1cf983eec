"""Adam, tau schedules and the variational fitting loop.

The loop fits a mean-field Gaussian to a fixed target density by stochastic
gradient descent on one of three objectives: the clamped free-energy loss,
forward KL (target samples, score-mean gradient) or reverse KL (pathwise).
Initialization is mu = 0, log_sigma = 0; every run is reproducible from its
seed because noise batches are drawn from one seeded generator in a fixed
per-iteration order.

_map_shares fits many jobs together, one iteration of every job at a
time.  Jobs that would draw equal noise read one draw per iteration:
srfe and reverse-KL jobs with the same seed, batch size and dimension
(standard normal eps), and forward-KL jobs with the same seed, batch size
and target (target samples).  train is the one-job case, and
srfe_lab.experiments fits every sweep through _map_shares too.

The jobs that read one noise stream form a stack (_Stack), and each
iteration of a stack is one call, _Stack.step: it draws the stream's next
batch and takes one array program over all its jobs, built from the row
kernels of srfe_lab.estimators.  theta and the Adam moments are (J, 2, d)
arrays.  A srfe/reverse-KL stack draws eps and takes
estimators._q_side_step, the q-side step a single fit takes too: x for
every row is one C-ordered (d, J, n) buffer, with one target pass per
distinct target over that target's rows.  A forward-KL stack calls its
target only where it draws: target.sample, then target.log_prob on those
samples.  Adam then takes one step for the whole stack, failed rows
included on a zero gradient, a row that step leaves non-finite fails too,
and the rows that failed or finished leave together.  A stack's rows are
its jobs grouped by target, in job order otherwise, so each target's rows
are one slice of the buffer.  Each row computes exactly what its job
computes stepped alone, and Adam works elementwise, so stacking changes no
number.  A target call that raises one of estimators.JOB_ERRORS ends the
jobs that made it, not the fit.

Jobs are split into one share per CPU this process may run on, balanced by
a fixed cost count: a job costs 1, and its noise stream 1 more in a share
that does not read it yet.  The split hands each share its stacks (_split,
{stream key: [job indices]}), so which jobs step together is decided there
alone, and a share builds one _Stack per entry without keying a job again.
_map_shares(jobs, fn) is the one way into the shares: share s of n fits
its stacks (_fit_lockstep) and hands its {job index: outcome} dict to
fn(s, n, fitted).  The calling process runs share 0, and each other share
runs in a child made with os.fork, which pickles back over a pipe one
value: the dict fn returns, or the exception that ended it; the dicts are
merged.  A child redraws its noise from the same seeds, so every job gets
the outcome it gets alone (an exception that cannot cross the pipe as
itself comes back as a RuntimeError naming it).  train's fn returns the
fitted dict as it is; srfe_lab.experiments' fn also evaluates the share's
fitted cells and makes its part of the target-entropy estimates.  With one
CPU, one job, no os.fork, or a second Python thread alive (its locks would
be copied held), there is one share and no fork.  Shares are processes,
not threads: a stack step is about a hundred short numpy calls, so worker
threads would mostly pass the interpreter lock between them rather than
overlap work.  The fork is written out here, not taken from a process
pool, because a pool's import alone costs start-up time and memory that
every command would pay: after importing srfe_lab.cli, importing
concurrent.futures.process took 15 ms and added 1.0 MB of peak RSS, and
multiprocessing.pool 18-21 ms and 0.8-0.9 MB (three runs each on 2 vCPUs,
Python 3.11.7).

Before it forks, _map_shares sets glibc's heap policy (_set_heap_policy),
which the shares inherit, so that the heap is not handed back to the
kernel and faulted in again between stack steps.
"""

from __future__ import annotations

import ctypes
import math
import os
import pickle
import sys
import threading
from dataclasses import dataclass, field

import numpy as np

from srfe_lab.discrete import _check_tau_open, _is_number, _require_count
# srfe_mc_step and the KL losses and gradients are the one-row case of the
# stack kernels and unused here, but perfbench/bench_trace.py patches them
# on training by name
from srfe_lab.estimators import (JOB_ERRORS, _forward_rows, _q_side_step,
                                 forward_kl_grad, forward_kl_loss,
                                 reverse_kl_grad, reverse_kl_loss,
                                 srfe_mc_step)
from srfe_lab.gaussians import DiagonalGaussian

__all__ = ["Adam", "TauSchedule", "TrainConfig", "TrainResult", "train",
           "OBJECTIVES"]

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
        """Keep the given rows of a stack's moments and lr column."""
        self.m, self.v, self.lr = self.m[rows], self.v[rows], self.lr[rows]


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


@dataclass(frozen=True, eq=False)
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

    jobs is the (target, cfg) list of the whole fit, and rows are the
    indices of this stack's jobs, as _split hands them over.  Row j of
    theta (J, 2, d), mu and log_sigma, belongs to job self.jobs[j]; Adam
    holds (J, 2, d) moments.  Rows leave the stack when their job fails or
    finishes.
    """

    def __init__(self, jobs: list, rows: list):
        # grouped by target, in order of first job, job order otherwise
        order = list(dict.fromkeys(id(jobs[i][0]) for i in rows))
        self.jobs = sorted(rows, key=lambda i: order.index(id(jobs[i][0])))
        self.targets = [jobs[i][0] for i in self.jobs]
        self.cfgs = [jobs[i][1] for i in self.jobs]
        self.forward = self.cfgs[0].objective == "forward_kl"
        self.rng = np.random.default_rng(self.cfgs[0].seed)
        self.theta = np.zeros((len(self.jobs), 2, self.targets[0].dim))
        self.opt = Adam(self.theta.shape, lr=np.array(
            [c.learning_rate for c in self.cfgs])[:, None, None])
        self.losses = [np.empty(c.iterations) for c in self.cfgs]
        self.clamps = [0] * len(self.jobs)

    def step(self, t: int) -> list:
        """Iteration t (1-based) of every row: draw the stream's next
        read-only batch, then step on it.  Returns (job, outcome) for each
        job that failed or finished at this step.

        A srfe/reverse-KL stack draws eps and takes one q-side step (one
        transform, one target pass per target, one weight and gradient
        program).  A forward-KL stack draws target.sample, then
        target.log_prob on those samples, its only calls of its target; one
        of JOB_ERRORS from either fails every row, which then steps on a
        zero gradient and leaves, as any failed row does."""
        cfg = self.cfgs[0]
        if self.forward:
            try:
                xs = np.asarray(self.targets[0].sample(cfg.batch_size,
                                                       self.rng))
                xs.flags.writeable = False
                log_p = self.targets[0].log_prob(xs)
            except JOB_ERRORS as exc:
                losses, grad = [], np.zeros_like(self.theta)
                failed = dict.fromkeys(range(len(self.jobs)), exc)
            else:
                losses, grad, _ = _forward_rows(self.theta, xs, log_p)
                clamped, failed = [False] * len(self.jobs), {}
        else:
            eps = self.rng.standard_normal((cfg.batch_size,
                                            self.theta.shape[2]))
            eps.flags.writeable = False
            taus = [cfg.schedule.tau_at(t, cfg.iterations)
                    if cfg.objective == "srfe" else 0.0 for cfg in self.cfgs]
            reports, grad, _, failed = _q_side_step(self.theta, eps,
                                                    self.targets, taus)
            losses = [rep.loss for rep in reports]
            clamped = [rep.clamped for rep in reports]
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
        # a failed row steps on a zero gradient and then leaves
        grad[list(failed)] = 0.0
        self.theta = self.opt.step(self.theta, grad)
        # a learning rate can pass the config check and still overflow
        for j in np.flatnonzero(~np.isfinite(self.theta).all(axis=(1, 2))):
            failed.setdefault(int(j), RuntimeError(
                f"non-finite parameters at step {t}"))
        ended = [(self.jobs[j], exc) for j, exc in failed.items()]
        ended += [(self.jobs[j], TrainResult(
            model=DiagonalGaussian(*self.theta[j]),
            loss_history=self.losses[j], clamp_count=self.clamps[j]))
            for j, cfg in enumerate(self.cfgs)
            if cfg.iterations == t and j not in failed]
        if ended:
            self._take([j for j, cfg in enumerate(self.cfgs)
                        if cfg.iterations != t and j not in failed])
        return ended

    def _take(self, keep: list) -> None:
        """Keep only the given rows."""
        self.theta = self.theta[keep]
        self.opt.take(keep)
        for name in ("jobs", "targets", "cfgs", "losses", "clamps"):
            setattr(self, name, [getattr(self, name)[j] for j in keep])


def _set_heap_policy() -> None:
    """Keep glibc's heap from handing memory back between stack steps.

    A stack step frees its (d, J, n) temporaries.  Under glibc's default
    policy the trim threshold can then sit below what is free at the heap
    top, which is handed back to the kernel and faulted in again on the
    next step: default exp2 took 4.3 million minor faults and 7.6 s of
    system time in the calling process.  This sets the trim threshold to
    64 MiB and the mmap threshold to 32 MiB for the whole process and the
    shares it forks, and they stay set after the fit returns.  Both are
    set because any mallopt call freezes glibc's dynamic mmap threshold at
    its current value, 128 kiB in a fresh process, and larger blocks would
    then be mapped and faulted in on every step.  This does nothing where
    the C library has no mallopt, or where CDLL(None) cannot open this
    process's own symbols (as off Linux)."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD


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


def _split(jobs, shares: int) -> list[dict]:
    """The stacks of each share, {stream key: [job indices]}, balanced by a
    fixed cost count; this is the one place that decides which jobs step
    together.

    Walking the jobs in order, each goes to the share where its cost leaves
    the lowest total, ties to the lowest index, and joins that share's
    stack of its noise stream (see _stream), so each stack lists its jobs
    in job order and each share its stacks in the order of their first
    job.  A job costs 1, and its noise stream 1 more in a share that does
    not read it yet: a q-side row adds about as much to a step as a stack's
    own draw and overhead does, and a forward-KL stack with its one job
    costs about two q-side rows."""
    costs = [0] * shares
    split = [{} for _ in range(shares)]
    for i, (target, cfg) in enumerate(jobs):
        key = _stream(target, cfg)
        s = min(range(shares), key=lambda s: costs[s] + (key not in split[s]))
        costs[s] += 1 + (key not in split[s])
        split[s].setdefault(key, []).append(i)
    return split


def _fit_lockstep(jobs: list, stacks: dict, parent: int | None) -> dict:
    """One share's fit, in this process: every stack of stacks, the
    share's entry of _split over jobs (the whole (target, cfg) list),
    steps once per iteration in turn until none has rows left.  Returns
    {job index: outcome} for the share's jobs.  A forked share passes the
    pid of the process that reads its outcomes, and exits once that
    process is gone."""
    stacks = [_Stack(jobs, rows) for rows in stacks.values()]
    outcomes = {}
    t = 0
    while stacks:
        if parent is not None and os.getppid() != parent:
            os._exit(1)  # no one is left to read this share's outcomes
        t += 1
        # one batch is alive at a time: each is dropped after its stack's step
        for stack in stacks:
            outcomes.update(stack.step(t))
        stacks = [stack for stack in stacks if stack.jobs]
    return outcomes


def _picklable(exc: Exception) -> Exception:
    """exc, or where it does not survive a pickle round trip (a constructor
    that takes other arguments than exc.args, say) a RuntimeError that
    names its type and carries its message."""
    try:
        pickle.loads(pickle.dumps(exc, pickle.HIGHEST_PROTOCOL))
    except Exception:
        return RuntimeError(f"{type(exc).__name__}: {exc}")
    return exc


def _fork_share(fn, s: int, parent: int):
    """Run fn(s, parent) in a forked child; its pid and the read end of the
    pipe that carries back one value: the dict fn returns, or the exception
    that ended it.  Each exception sent, in the dict's values or raised, is
    first passed through _picklable, so that the parent can always read
    the payload."""
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
                payload = {k: _picklable(v) if isinstance(v, Exception)
                           else v for k, v in fn(s, parent).items()}
            except Exception as exc:
                payload = _picklable(exc)
            with os.fdopen(write_fd, "wb") as fh:
                pickle.dump(payload, fh, pickle.HIGHEST_PROTOCOL)
            code = 0
        finally:
            os._exit(code)
    os.close(write_fd)
    return pid, os.fdopen(read_fd, "rb")


def _map_shares(jobs: list, fn) -> dict:
    """Fit the (target, TrainConfig) jobs in the shares of _split, and
    return the dicts fn(s, n, fitted) of the n shares, merged into one.

    fitted is {job index: outcome} for share s's jobs, each outcome the
    TrainResult the job gets fitted alone, or the exception that ended it.
    Failures end jobs, not the call: a job whose loss, gradient or
    parameters are non-finite at step t ends with RuntimeError("non-finite
    loss at step t"), "... gradient ..." or "... parameters ...", and one
    of JOB_ERRORS raised by a target call ends every job that call served.
    Share 0 runs in this process and every other share in a child forked
    for it (see the module docstring), which stops once this process is
    gone.  Any other exception, from the fit or from fn, is raised here, a
    forked share's after this process has run its own.  An exception of a
    forked share, raised or in its dict, that does not survive a pickle
    round trip arrives as RuntimeError("<its type name>: <its message>").
    A child that exits without its value is a ChildProcessError, and on
    any error every child still running is killed and reaped.  A share
    fits and runs fn with numpy's overflow, invalid and divide warnings off.

    On entry, before any fork, this sets glibc's heap policy for the whole
    process (see _set_heap_policy); it stays set after the call.
    """
    _set_heap_policy()
    split = _split(jobs, _share_count(len(jobs)))
    n = len(split)

    def share(s: int, parent: int | None) -> dict:
        # a fit that blows up fails its jobs with a named reason, so numpy's
        # warnings on the way there would only repeat it
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return fn(s, n, _fit_lockstep(jobs, split[s], parent))

    children = []  # (share, pid, pipe read end), until reaped
    try:
        if n > 1:
            # a child that prints, a warning say, would also write out its
            # copy of what is still buffered
            for stream in (sys.stdout, sys.stderr):
                if stream is not None:
                    stream.flush()
        parent = os.getpid()
        for s in range(1, n):
            children.append((s, *_fork_share(share, s, parent)))
        merged = share(0, None)
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
            value = pickle.loads(data)
            if isinstance(value, Exception):
                raise value
            merged.update(value)
    finally:
        if children:  # the run failed midway
            # imported here: at module level it would add about a
            # millisecond to every command's start-up
            import signal
            for _, pid, fh in children:
                fh.close()
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    return merged


def train(target, cfg: TrainConfig) -> TrainResult:
    """Fit a mean-field Gaussian to target under cfg.  Deterministic per seed.

    target is duck-typed with four members: dim, log_prob(x),
    log_prob_and_score(x) and sample(n, rng), x of shape (n, d) (see
    srfe_lab.estimators).  srfe and reverse KL read log_prob_and_score,
    forward KL log_prob and sample.  The
    srfe loss clamps its overlap estimate into [F_CLAMP_LOW, F_CLAMP_HIGH]
    of srfe_lab.estimators.

    Raises RuntimeError naming the step index if a loss, a gradient or the
    parameters are non-finite (the clamp makes the free-energy loss finite
    by construction, so this can only trip on a degenerate target or on a
    learning rate whose step overflows).  This is _map_shares on one job,
    which forks nothing.
    """
    outcome = _map_shares([(target, cfg)], lambda s, n, fitted: fitted)[0]
    if isinstance(outcome, Exception):
        raise outcome
    return outcome
