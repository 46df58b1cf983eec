"""Adam, tau schedules and the variational fitting loop.

The loop fits a mean-field Gaussian to a fixed target density by stochastic
gradient descent on one of three objectives: the clamped free-energy loss,
forward KL (target samples, score-mean gradient) or reverse KL (pathwise).
Initialization is mu = 0, log_sigma = 0; every run is reproducible from its
seed because noise batches are drawn from one seeded generator in a fixed
per-iteration order.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

from srfe_lab.estimators import (
    forward_kl_grad,
    forward_kl_loss,
    reverse_kl_grad,
    reverse_kl_loss,
    srfe_mc_step,
)
from srfe_lab.gaussians import DiagonalGaussian

__all__ = ["Adam", "TauSchedule", "TrainConfig", "TrainResult", "train",
           "OBJECTIVES"]

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
    so this can only trip on a degenerate target).
    """
    dim = target.dim
    rng = np.random.default_rng(cfg.seed)
    mu = np.zeros(dim)
    log_sigma = np.zeros(dim)
    opt = Adam(2 * dim, lr=cfg.learning_rate)
    losses = np.empty(cfg.iterations)
    clamp_count = 0

    for t in range(1, cfg.iterations + 1):
        q = DiagonalGaussian(mu, log_sigma)
        if cfg.objective == "srfe":
            tau = cfg.schedule.tau_at(t, cfg.iterations)
            eps = rng.standard_normal((cfg.batch_size, dim))
            report, grad = srfe_mc_step(q, target, tau, eps)
            loss = report.loss
            clamp_count += int(report.clamped)
        elif cfg.objective == "forward_kl":
            xs = target.sample(cfg.batch_size, rng)
            loss = forward_kl_loss(q, target, xs)
            grad = forward_kl_grad(q, xs)
        else:
            eps = rng.standard_normal((cfg.batch_size, dim))
            loss = reverse_kl_loss(q, target, eps)
            grad = reverse_kl_grad(q, target, eps)

        if not np.isfinite(loss):
            raise RuntimeError(f"non-finite loss at step {t}")
        flat_grad = np.concatenate([grad.d_mu, grad.d_log_sigma])
        if not np.all(np.isfinite(flat_grad)):
            raise RuntimeError(f"non-finite gradient at step {t}")
        losses[t - 1] = loss
        theta = opt.step(np.concatenate([mu, log_sigma]), flat_grad)
        mu, log_sigma = theta[:dim], theta[dim:]

    return TrainResult(model=DiagonalGaussian(mu, log_sigma),
                       loss_history=losses, clamp_count=clamp_count)
