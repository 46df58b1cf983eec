"""Monte Carlo losses and pathwise gradients for fitting a mean-field Gaussian.

The free-energy loss follows the clamped estimator: draw eps, push it through
the reparameterization, average exp(tau * log ratio) with a running-max shift,
clamp the overlap estimate into [F_CLAMP_LOW, F_CLAMP_HIGH] = [1e-10, 1], and
take -log of it over tau(1-tau).  Gradients are exact derivatives of that
loss in (mu, log_sigma); when the clamp is active the loss is locally
constant and the gradient is zero.  Forward and reverse KL losses use the
same sample-in, numbers-out style so the training loop can treat all three
uniformly.

Targets are duck-typed, with four members.  dim is the dimension d of
their points.  On a batch x of shape (n, d), log_prob(x) gives the (n,) log
densities and log_prob_and_score(x) gives them together with their (n, d)
x-gradients, from one pass; sample(n, rng) draws (n, d) points.  The
free-energy step and the reverse-KL gradient read the score, forward KL the
samples.  The Gaussian models in srfe_lab.gaussians provide all four.

The five fitting entry points (srfe_mc_step and the forward- and
reverse-KL losses and gradients) take their batch, eps or xs, of shape
(n, d) with n >= 1 and raise a ValueError naming that shape otherwise.  Buffers follow the
rule of srfe_lab.gaussians: a call owns what it allocates, fills it in
place, and never writes an argument, so a read-only noise batch shared
between fits is safe.  The gradient kernels read the score and eps as the
length-n rows of their (d, n) transposes.

The second-moment tools at the bottom work on a finite support with a
softmax-parameterized model, where everything can also be enumerated exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from srfe_lab.discrete import DiscreteDist, _check_tau_open
from srfe_lab.gaussians import DiagonalGaussian, _sum_rows

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


def _check_batch(name: str, batch, dim: int) -> np.ndarray:
    """batch as a float array of shape (n, dim) with n >= 1, else a
    ValueError."""
    arr = np.asarray(batch, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != dim or arr.shape[0] < 1:
        raise ValueError(f"{name} must have shape (n, {dim}) with n >= 1, "
                         f"got shape {arr.shape}")
    return arr


def _pathwise_grad(q: DiagonalGaussian, score: np.ndarray, eps: np.ndarray,
                   w: np.ndarray, scale: float) -> GradReport:
    """scale * sum_i w_i dr_i/dtheta for r = log p - log q at x = mu + sigma eps.

    For the mean-field Gaussian the model-score term cancels against the
    sampling path, leaving

        dr/dmu_k       = s_k(x)                    (target x-score)
        dr/dlogsigma_k = s_k(x) sigma_k eps_k + 1

    second_moment is the mean squared norm of the per-sample contributions
    g_i = scale * n w_i dr_i/dtheta, whose mean is the gradient.  Each
    term is one pass over the (d, n) rows of score.T and eps.T; the squared
    norm accumulates one coordinate at a time.
    """
    st = score.T
    b = np.empty((q.dim, w.size))
    np.multiply(eps.T, q.sigma[:, None], out=b)
    b *= st
    b += 1.0
    # each row sum runs over one contiguous row, as a length-n sum does
    wb = np.empty_like(b)
    d_mu = scale * np.multiply(st, w, out=wb).sum(axis=1)
    d_ls = scale * np.multiply(b, w, out=wb).sum(axis=1)
    np.square(st, out=wb)
    np.square(b, out=b)
    sq = np.add(wb[0], b[0])
    for s2_k, b2_k in zip(wb[1:], b[1:]):
        sq += s2_k
        sq += b2_k
    c = np.multiply(w, w.size)
    c *= scale
    np.multiply(c, c, out=c)
    c *= sq
    return GradReport(d_mu=d_mu, d_log_sigma=d_ls,
                      second_moment=float(c.mean()))


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
    eps = _check_batch("eps", eps, q.dim)
    x = q.transform(eps)
    log_p, score = target.log_prob_and_score(x)
    w = np.subtract(log_p, q.log_prob(x))  # r, turned into weights below
    r_max = float(w.max())
    if r_max == -math.inf:
        log_f = -math.inf
    else:
        # shift by the max so the largest weight is exactly 1
        w -= r_max
        w *= tau
        np.exp(w, out=w)
        log_f = tau * r_max + math.log(float(w.mean()))
    f_hat, clamped = _clamp_log_f(log_f)
    loss = LossReport(loss=-math.log(f_hat) / (tau * (1.0 - tau)),
                      f_hat=f_hat, max_log_ratio=r_max, clamped=clamped)
    if clamped:
        zero = np.zeros(q.dim)
        return loss, GradReport(d_mu=zero, d_log_sigma=zero.copy(),
                                second_moment=0.0)
    w /= w.sum()
    return loss, _pathwise_grad(q, np.asarray(score), eps, w,
                                -1.0 / (1.0 - tau))


def forward_kl_loss(q: DiagonalGaussian, target, xs: np.ndarray) -> float:
    """mean[log p(x) - log q(x)] over target samples xs (shape (n, d))."""
    xs = _check_batch("xs", xs, q.dim)
    r = np.subtract(target.log_prob(xs), q.log_prob(xs))
    return float(r.mean())


def forward_kl_grad(q: DiagonalGaussian, xs: np.ndarray) -> GradReport:
    """Gradient of forward_kl_loss: minus the mean model score at fixed xs."""
    d_mu_i, d_ls_i = q.param_score(_check_batch("xs", xs, q.dim))
    rows = [*d_mu_i.T, *d_ls_i.T]
    mean = -np.array([row.mean() for row in rows])
    for row in rows:
        np.square(row, out=row)
    return GradReport(d_mu=mean[:q.dim], d_log_sigma=mean[q.dim:],
                      second_moment=float(_sum_rows(rows, out=rows[0]).mean()))


def reverse_kl_loss(q: DiagonalGaussian, target, eps: np.ndarray) -> float:
    """mean[log q(x) - log p(x)] at x = mu + sigma eps."""
    x = q.transform(_check_batch("eps", eps, q.dim))
    r = np.subtract(target.log_prob(x), q.log_prob(x))
    return float(-r.mean())


def reverse_kl_grad(q: DiagonalGaussian, target, eps: np.ndarray) -> GradReport:
    """Pathwise derivative of reverse_kl_loss: the srfe gradient's kernel
    with uniform weights and scale -1 (the tau -> 0 endpoint)."""
    eps = _check_batch("eps", eps, q.dim)
    score = np.asarray(target.log_prob_and_score(q.transform(eps))[1])
    n = eps.shape[0]
    return _pathwise_grad(q, score, eps, np.full(n, 1.0 / n), -1.0)


# ---------------------------------------------------------------------------
# Second moments of one-sample gradient estimators on a finite support
# ---------------------------------------------------------------------------

_KINDS = ("cr", "srfe_escort", "srfe_q")


def softmax(logits: np.ndarray) -> np.ndarray:
    """Normalized exponentials along the last axis, one distribution per row."""
    z = np.asarray(logits, dtype=np.float64)
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


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
