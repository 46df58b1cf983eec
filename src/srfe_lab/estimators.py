"""Monte Carlo losses and pathwise gradients for fitting a mean-field Gaussian.

The free-energy loss follows the clamped estimator: draw eps, push it through
the reparameterization, average exp(tau * log ratio) with a running-max shift,
clamp the overlap estimate into [F_CLAMP_LOW, F_CLAMP_HIGH] = [1e-10, 1], and
take -log of it over tau(1-tau).  Gradients are exact derivatives of that
loss in (mu, log_sigma); when the clamp is active the loss is locally
constant and the gradient is zero.  Forward and reverse KL losses use the
same sample-in, numbers-out style so the training loop can treat all three
uniformly.

Targets are duck-typed.  dim is the dimension d of their points.  On a
batch x of shape (n, d), log_prob(x) gives the (n,) log densities, score_x(x)
their (n, d) x-gradients, and log_prob_and_score(x) both from one pass (the
free-energy step uses it); sample(n, rng) draws (n, d) points for forward
KL.  The Gaussian models in srfe_lab.gaussians provide all five.

The second-moment tools at the bottom work on a finite support with a
softmax-parameterized model, where everything can also be enumerated exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from srfe_lab.discrete import DiscreteDist, _check_tau_open
from srfe_lab.gaussians import DiagonalGaussian

__all__ = [
    "F_CLAMP_LOW",
    "F_CLAMP_HIGH",
    "LossReport",
    "GradReport",
    "SecondMomentReport",
    "srfe_mc_step",
    "forward_kl_loss",
    "forward_kl_grad",
    "reverse_kl_loss",
    "reverse_kl_grad",
    "softmax",
    "softmax_scores",
    "estimator_second_moment",
    "exact_second_moment",
]


# The overlap estimate f_hat is clamped into [F_CLAMP_LOW, F_CLAMP_HIGH].
F_CLAMP_LOW = 1e-10
F_CLAMP_HIGH = 1.0


@dataclass(frozen=True)
class LossReport:
    loss: float
    f_hat: float
    max_log_ratio: float
    clamped: bool


@dataclass(frozen=True)
class GradReport:
    d_mu: np.ndarray
    d_log_sigma: np.ndarray
    second_moment: float


@dataclass(frozen=True)
class SecondMomentReport:
    empirical: float
    bound: float


def _clamp_log_f(log_f: float) -> tuple[float, bool]:
    if log_f < math.log(F_CLAMP_LOW):
        return F_CLAMP_LOW, True
    if log_f > math.log(F_CLAMP_HIGH):
        return F_CLAMP_HIGH, True
    return math.exp(log_f), False


def _pathwise_grad(q: DiagonalGaussian, score: np.ndarray, eps: np.ndarray,
                   w: np.ndarray, scale: float) -> GradReport:
    """scale * sum_i w_i dr_i/dtheta for r = log p - log q at x = mu + sigma eps.

    For the mean-field Gaussian the model-score term cancels against the
    sampling path, leaving

        dr/dmu_k       = s_k(x)                    (target x-score)
        dr/dlogsigma_k = s_k(x) sigma_k eps_k + 1

    second_moment is the mean squared norm of the per-sample contributions
    g_i = scale * n w_i dr_i/dtheta, whose mean is the gradient.
    """
    b = np.concatenate([score, score * (q.sigma * eps) + 1.0], axis=1)
    d = scale * (w[:, None] * b).sum(axis=0)
    g = scale * (w.size * w)[:, None] * b
    return GradReport(d_mu=d[:q.dim], d_log_sigma=d[q.dim:],
                      second_moment=float((g * g).sum(axis=1).mean()))


def srfe_mc_step(q: DiagonalGaussian, target, tau: float,
                 eps: np.ndarray) -> tuple[LossReport, GradReport]:
    """Clamped free-energy loss at tau in (0, 1) and its exact gradient from
    a fixed noise batch eps of shape (n, d), n >= 1, with one target pass
    over the batch.

    Deterministic given eps.  loss = -log f_hat / (tau (1 - tau)) with f_hat
    the clamped mean of exp(tau r), r = log p - log q at x = mu + sigma eps.
    Differentiating gives -mean_w[dr/dtheta] / (1 - tau) with weights
    proportional to exp(tau r_i) (see _pathwise_grad).  When the clamp is
    active the loss is locally flat and the gradient is zero; a batch with
    no sample in the target's support (every r = -inf, f_hat = 0) clamps low.
    """
    _check_tau_open(tau)
    eps = np.asarray(eps, dtype=np.float64)
    if eps.ndim != 2 or eps.shape[1] != q.dim or eps.shape[0] < 1:
        raise ValueError(f"eps must have shape (n, {q.dim}), got {eps.shape}")
    x = q.transform(eps)
    log_p, score = target.log_prob_and_score(x)
    r = np.asarray(log_p) - np.asarray(q.log_prob(x))
    r_max = float(r.max())
    if r_max == -math.inf:
        log_f = -math.inf
    else:
        # shift by the max so the largest weight is exactly 1
        w = np.exp(tau * (r - r_max))
        log_f = tau * r_max + math.log(float(w.mean()))
    f_hat, clamped = _clamp_log_f(log_f)
    loss = LossReport(loss=-math.log(f_hat) / (tau * (1.0 - tau)),
                      f_hat=f_hat, max_log_ratio=r_max, clamped=clamped)
    if clamped:
        zero = np.zeros(q.dim)
        return loss, GradReport(d_mu=zero, d_log_sigma=zero.copy(),
                                second_moment=0.0)
    return loss, _pathwise_grad(q, np.asarray(score), eps, w / w.sum(),
                                -1.0 / (1.0 - tau))


def forward_kl_loss(q: DiagonalGaussian, target, xs: np.ndarray) -> float:
    """mean[log p(x) - log q(x)] over target samples xs (shape (n, d))."""
    xs = np.asarray(xs, dtype=np.float64)
    return float(np.mean(np.asarray(target.log_prob(xs))
                         - np.asarray(q.log_prob(xs))))


def forward_kl_grad(q: DiagonalGaussian, xs: np.ndarray) -> GradReport:
    """Gradient of forward_kl_loss: minus the mean model score at fixed xs."""
    xs = np.asarray(xs, dtype=np.float64)
    d_mu_i, d_ls_i = q.param_score(xs)
    g = -np.concatenate([d_mu_i, d_ls_i], axis=1)
    second = float((g * g).sum(axis=1).mean())
    return GradReport(d_mu=g[:, :q.dim].mean(axis=0),
                      d_log_sigma=g[:, q.dim:].mean(axis=0),
                      second_moment=second)


def reverse_kl_loss(q: DiagonalGaussian, target, eps: np.ndarray) -> float:
    """mean[log q(x) - log p(x)] at x = mu + sigma eps."""
    x = q.transform(np.asarray(eps, dtype=np.float64))
    return float(-np.mean(np.asarray(target.log_prob(x))
                          - np.asarray(q.log_prob(x))))


def reverse_kl_grad(q: DiagonalGaussian, target, eps: np.ndarray) -> GradReport:
    """Pathwise derivative of reverse_kl_loss: the srfe gradient's kernel
    with uniform weights and scale -1 (the tau -> 0 endpoint)."""
    eps = np.asarray(eps, dtype=np.float64)
    score = np.asarray(target.score_x(q.transform(eps)))
    n = eps.shape[0]
    return _pathwise_grad(q, score, eps, np.full(n, 1.0 / n), -1.0)


# ---------------------------------------------------------------------------
# Second moments of one-sample gradient estimators on a finite support
# ---------------------------------------------------------------------------

_KINDS = ("cr", "srfe_escort", "srfe_q")


def softmax(logits: np.ndarray) -> np.ndarray:
    z = np.asarray(logits, dtype=np.float64)
    z = z - z.max()
    e = np.exp(z)
    return e / e.sum()


def softmax_scores(logits: np.ndarray) -> np.ndarray:
    """Rows are grad_theta log q_theta(j) = e_j - q for the softmax family."""
    q = softmax(logits)
    return np.eye(q.size) - q[None, :]


def _moment_pieces(kind: str, p: DiscreteDist, logits: np.ndarray,
                   tau: float):
    """What both second-moment tools share: kind and tau validation, the
    model q, u = p/q, F, the escort r, the squared score norms, and the
    analytic bound of kind.

    With C = max_j ||score_j||^2 and S = sum_j q_j u_j^(2 tau), the bounds
    are (C/tau^2) S for "cr", C/tau^2 for "srfe_escort", and (C/tau^2) S / F^2
    for "srfe_q".
    """
    if kind not in _KINDS:
        raise ValueError(f"kind must be one of {_KINDS}, got {kind!r}")
    _check_tau_open(tau)
    q = softmax(logits)
    if p.size != q.size:
        raise ValueError("support size mismatch")
    u = p.probs / q
    bridge = p.probs ** tau * q ** (1.0 - tau)
    f = float(bridge.sum())
    scores = softmax_scores(logits)
    norms2 = (scores * scores).sum(axis=1)
    bound = 1.0 / (tau * tau) * float(norms2.max())
    if kind != "srfe_escort":
        bound *= float((q * u ** (2.0 * tau)).sum())
    if kind == "srfe_q":
        bound /= f * f
    return q, u, f, bridge / f, norms2, bound


def exact_second_moment(kind: str, p: DiscreteDist, logits: np.ndarray,
                        tau: float) -> SecondMomentReport:
    """Enumerated E||g||^2 and its analytic bound for one-sample estimators.

    kind "cr":          g = -(1/tau) u(X)^tau score(X),        X ~ q
    kind "srfe_escort": g = -(1/tau) score(X),                 X ~ escort
    kind "srfe_q":      g = -(1/tau) (u(X)^tau / F) score(X),  X ~ q

    Bounds use C = max_j ||score_j||^2 (see _moment_pieces).
    """
    q, u, f, r, norms2, bound = _moment_pieces(kind, p, logits, tau)
    inv_t2 = 1.0 / (tau * tau)
    if kind == "srfe_escort":
        emp = inv_t2 * float((r * norms2).sum())
    else:
        emp = inv_t2 * float((q * u ** (2.0 * tau) * norms2).sum())
        if kind == "srfe_q":
            emp /= f * f
    return SecondMomentReport(empirical=emp, bound=bound)


def estimator_second_moment(kind: str, p: DiscreteDist, logits: np.ndarray,
                            tau: float, n: int,
                            rng: np.random.Generator) -> SecondMomentReport:
    """Sampled mean ||g||^2 over n one-sample draws, with the analytic bound."""
    q, u, f, r, norms2, bound = _moment_pieces(kind, p, logits, tau)
    inv_t2 = 1.0 / (tau * tau)
    if kind == "srfe_escort":
        idx = rng.choice(p.size, size=n, p=r / r.sum())
        sq = inv_t2 * norms2[idx]
    else:
        idx = rng.choice(p.size, size=n, p=q)
        amp = u[idx] ** (2.0 * tau)
        if kind == "srfe_q":
            amp = amp / (f * f)
        sq = inv_t2 * amp * norms2[idx]
    return SecondMomentReport(empirical=float(sq.mean()), bound=bound)
