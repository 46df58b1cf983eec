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
free-energy step and the reverse-KL loss and gradient read
log_prob_and_score, forward KL log_prob and the samples.  The Gaussian
models in srfe_lab.gaussians provide all four.

The kernels work on stacks: J models, theta of shape (J, 2, d) whose rows
are (mu, log_sigma), fitted on one shared batch of n points.  _q_rows and
_target_rows make the q-side pass (x = mu + sigma eps, log q, and one
target pass per distinct target over its rows), _q_side_rows turns it into
losses and pathwise gradients, and _forward_rows does the same for forward
KL on target samples.  Reverse KL is the q-side's tau = 0 row: uniform
weights, scale -1, loss -mean(r).  The five fitting entry points
(srfe_mc_step and the forward- and reverse-KL losses and gradients) are the
kernels' one-row case; they take their batch, eps or xs, of shape (n, d)
with n >= 1 and raise a ValueError naming that shape otherwise.

Buffers follow the rule of srfe_lab.gaussians: a call owns what it
allocates, fills it in place, and never writes an argument, so a read-only
noise batch shared between fits is safe.  Every per-point stack buffer is
a C-ordered (d, J, n) array (or (J, n) for one value per point) allocated
with np.empty and filled through out=, so each of its (J, n) rows is one
contiguous length-n row: its row sums run over contiguous memory and pair
their terms as a single fit's length-n sums do, which keeps every row
bit-identical to the fit stepped alone.  The gradient kernels read the
score and eps as the length-n rows of their transposes.

The second-moment tools at the bottom work on a finite support with a
softmax-parameterized model, where everything can also be enumerated exactly.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from srfe_lab.discrete import DiscreteDist, _check_tau_open
from srfe_lab.gaussians import (DiagonalGaussian, _log_norm, _log_prob_rows,
                                _param_score_rows, _sum_rows, _transform_rows)

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


def _theta(q: DiagonalGaussian) -> np.ndarray:
    """q as a one-row stack, of shape (1, 2, d)."""
    return np.stack((q.mu, q.log_sigma))[None]


def _columns(theta: np.ndarray):
    """mu and sigma of every row of theta as (d, J, 1) columns, and the log
    normalizers as a (J, 1) column."""
    # contiguous, so exp reads it as it reads a lone model's log_sigma
    log_sigma = np.ascontiguousarray(theta[:, 1])
    return (theta[:, 0].T[:, :, None], np.exp(log_sigma).T[:, :, None],
            _log_norm(log_sigma)[:, None])


def _q_rows(theta: np.ndarray, eps: np.ndarray):
    """x = mu + sigma eps for every row of theta on eps (n, d), as a (d, J, n)
    buffer, and log q(x) as (J, n)."""
    mu, sigma, log_norm = _columns(theta)
    (d, J, _), n = mu.shape, eps.shape[0]
    x = _transform_rows(eps.T[:, None, :], mu, sigma, np.empty((d, J, n)))
    diff = np.subtract(x, mu, out=np.empty((d, J, n)))
    return x, _log_prob_rows(diff, sigma, log_norm, out=np.empty((J, n)))


def _target_rows(target, x: np.ndarray, log_q: np.ndarray, r: np.ndarray,
                 score: np.ndarray) -> None:
    """One log_prob_and_score pass of target over the m rows of x (d, m, n),
    a row slice of a stack's buffer: r = log p - log q into r (m, n), and
    the score into the rows of score (d, m, n).  The pass sees the
    (m n, d) transpose of the (d, m n) view of x."""
    d, m, n = x.shape
    log_p, s = target.log_prob_and_score(x.reshape(d, m * n).T)
    np.subtract(np.reshape(log_p, (m, n)), log_q, out=r)
    np.copyto(score, np.asarray(s).T.reshape(d, m, n))


def _pathwise_rows(score: np.ndarray, eps: np.ndarray, sigma: np.ndarray,
                   w: np.ndarray, scale: np.ndarray, moments: bool):
    """scale_j * sum_i w_ji dr_ji/dtheta_j for each of L rows, with r = log p
    - log q at x = mu + sigma eps.

    For the mean-field Gaussian the model-score term cancels against the
    sampling path, leaving

        dr/dmu_k       = s_k(x)                    (target x-score)
        dr/dlogsigma_k = s_k(x) sigma_k eps_k + 1

    score is (d, L, n), sigma (d, L, 1), w (L, n) and scale (L,).  Returns
    d_mu and d_log_sigma as (d, L) and, if moments, each row's second
    moment (else None): the mean squared norm of the per-sample
    contributions g_i = scale n w_i dr_i/dtheta, whose mean is the
    gradient.  The squared norm accumulates one coordinate at a time.
    """
    b = np.empty(score.shape)
    np.multiply(eps.T[:, None, :], sigma, out=b)
    b *= score
    b += 1.0
    wb = np.empty(score.shape)
    d_mu = np.multiply(score, w, out=wb).sum(axis=2)
    d_mu *= scale
    d_ls = np.multiply(b, w, out=wb).sum(axis=2)
    d_ls *= scale
    if not moments:
        return d_mu, d_ls, None
    np.square(score, out=wb)
    np.square(b, out=b)
    sq = np.add(wb[0], b[0])
    for s2_k, b2_k in zip(wb[1:], b[1:]):
        sq += s2_k
        sq += b2_k
    c = np.multiply(w, w.shape[1])
    c *= scale[:, None]
    np.multiply(c, c, out=c)
    c *= sq
    return d_mu, d_ls, c.mean(axis=1)


def _runs(keys):
    """(start, stop, key) of each run of equal consecutive keys."""
    start = 0
    for key, run in itertools.groupby(keys):
        stop = start + len(list(run))
        yield start, stop, key
        start = stop


def _q_side_rows(theta: np.ndarray, eps: np.ndarray, r: np.ndarray,
                 score: np.ndarray, taus, moments: bool = False):
    """Losses and exact gradients of J q-side rows from one pass: theta (J,
    2, d), eps (n, d), r = log p - log q (J, n), which becomes the weights,
    and the score (d, J, n).  Row j is a free-energy row at taus[j] in
    (0, 1), or a reverse-KL row at taus[j] = 0.

    Returns a LossReport per row, the gradients as (J, 2, d) and, if
    moments, the second moments as (J,) (else None; the fitting loop does
    not read them).  A free-energy row weighs its samples by exp(tau r_i),
    shifted by the row max; a row with no sample in the target's support
    (every r = -inf, f_hat = 0) clamps low, and a clamped row's loss is
    locally flat, so its gradient and second moment are zero.  A reverse-KL
    row has uniform weights, scale -1, loss -mean(r), and f_hat 1 (the
    overlap at tau = 0).
    """
    J, n = r.shape
    r_max = r.max(axis=1)
    # each row's weight total; a reverse-KL row's 1 keeps its weights 1/n
    sums = np.ones(J)
    scale = np.empty(J)
    reports = []
    for start, stop, reverse in _runs([tau == 0.0 for tau in taus]):
        w = r[start:stop]
        if reverse:
            losses = w.mean(axis=1)
            w.fill(1.0 / n)
            scale[start:stop] = -1.0
            reports += [LossReport(loss=float(-loss), f_hat=1.0,
                                   max_log_ratio=float(top), clamped=False)
                        for loss, top in zip(losses, r_max[start:stop])]
            continue
        tau = np.array(taus[start:stop])
        top = r_max[start:stop]
        # shift by the max so the largest weight is exactly 1; a row with no
        # support keeps its -inf entries, whose weights come out 0
        w -= np.where(top == -math.inf, 0.0, top)[:, None]
        w *= tau[:, None]
        np.exp(w, out=w)
        w.sum(axis=1, out=sums[start:stop])
        means = sums[start:stop] / n
        for t, r_top, mean in zip(tau.tolist(), top.tolist(), means.tolist()):
            if r_top == -math.inf:
                log_f = -math.inf
            else:
                log_f = t * r_top + math.log(mean)
            f_hat, clamped = _clamp_log_f(log_f)
            reports.append(LossReport(loss=-math.log(f_hat) / (t * (1.0 - t)),
                                      f_hat=f_hat, max_log_ratio=r_top,
                                      clamped=clamped))
        scale[start:stop] = -1.0 / (1.0 - tau)
    grad = np.zeros((J, 2, score.shape[0]))
    second = np.zeros(J) if moments else None
    live = [j for j, rep in enumerate(reports) if not rep.clamped]
    if not live:
        return reports, grad, second
    sigma = _columns(theta)[1]
    if len(live) < J:  # gather the live rows into new C-ordered buffers
        rows = np.array(live)
        r, sums, scale = r[rows], sums[rows], scale[rows]
        sigma = sigma[:, rows]
        score = np.take(score, rows, axis=1,
                        out=np.empty((score.shape[0], len(live), n)))
    r /= sums[:, None]
    d_mu, d_ls, live_moments = _pathwise_rows(score, eps, sigma, r, scale,
                                              moments)
    grad[live, 0] = d_mu.T
    grad[live, 1] = d_ls.T
    if moments:
        second[live] = live_moments
    return reports, grad, second


def _forward_rows(theta: np.ndarray, xs: np.ndarray, log_p=None,
                  moments: bool = False):
    """Forward-KL losses and gradients of J rows at shared target samples
    xs (n, d) with log densities log_p (n,): the losses mean[log p - log q]
    as (J,) (None without log_p), the gradients, minus the mean model score,
    as (J, 2, d), and, if moments, the second moments, mean squared norms
    of the model score, as (J,) (else None)."""
    mu, sigma, log_norm = _columns(theta)
    (d, J, _), n = mu.shape, xs.shape[0]
    diff = np.subtract(xs.T[:, None, :], mu, out=np.empty((d, J, n)))
    d_mu, d_ls = _param_score_rows(diff, sigma)
    losses = None
    if log_p is not None:
        r = _log_prob_rows(diff, sigma, log_norm, out=np.empty((J, n)))
        np.subtract(log_p, r, out=r)
        losses = r.mean(axis=1)
    grad = np.empty((J, 2, d))
    np.negative(d_mu.mean(axis=2).T, out=grad[:, 0])
    np.negative(d_ls.mean(axis=2).T, out=grad[:, 1])
    if not moments:
        return losses, grad, None
    rows = [*d_mu, *d_ls]
    for row in rows:
        np.square(row, out=row)
    return losses, grad, _sum_rows(rows, out=rows[0]).mean(axis=1)


def _grad_report(grad: np.ndarray, second: np.ndarray) -> GradReport:
    """Row 0 of a stack's gradients as a GradReport."""
    return GradReport(d_mu=grad[0, 0], d_log_sigma=grad[0, 1],
                      second_moment=float(second[0]))


def _pathwise_grad(q: DiagonalGaussian, score: np.ndarray, eps: np.ndarray,
                   w: np.ndarray, scale: float) -> GradReport:
    """_pathwise_rows on one row: scale * sum_i w_i dr_i/dtheta for q, the
    (n, d) score and eps, and the weights w (n,)."""
    n = w.size
    rows = np.empty((q.dim, 1, n))
    np.copyto(rows[:, 0], np.asarray(score).T)
    d_mu, d_ls, second = _pathwise_rows(rows, eps, q.sigma[:, None, None],
                                        w[None], np.array([scale]), True)
    return GradReport(d_mu=d_mu[:, 0], d_log_sigma=d_ls[:, 0],
                      second_moment=float(second[0]))


def _one_q_side_row(q: DiagonalGaussian, target, tau: float, eps):
    """One q-side row at tau (0 for reverse KL): its LossReport and
    GradReport."""
    eps = _check_batch("eps", eps, q.dim)
    theta = _theta(q)
    x, log_q = _q_rows(theta, eps)
    r, score = np.empty(log_q.shape), np.empty(x.shape)
    _target_rows(target, x, log_q, r, score)
    (report,), grad, second = _q_side_rows(theta, eps, r, score, [tau],
                                           moments=True)
    return report, _grad_report(grad, second)


def srfe_mc_step(q: DiagonalGaussian, target, tau: float,
                 eps: np.ndarray) -> tuple[LossReport, GradReport]:
    """Clamped free-energy loss at tau in (0, 1) and its exact gradient from
    a fixed noise batch eps of shape (n, d), n >= 1, with one target pass
    over the batch.

    Deterministic given eps.  loss = -log f_hat / (tau (1 - tau)) with f_hat
    the clamped mean of exp(tau r), r = log p - log q at x = mu + sigma eps.
    Differentiating gives -mean_w[dr/dtheta] / (1 - tau) with weights
    proportional to exp(tau r_i) (see _pathwise_rows).  When the clamp is
    active the loss is locally flat and the gradient is zero; a batch with
    no sample in the target's support (every r = -inf, f_hat = 0) clamps low.
    """
    _check_tau_open(tau)
    return _one_q_side_row(q, target, tau, eps)


def forward_kl_loss(q: DiagonalGaussian, target, xs: np.ndarray) -> float:
    """mean[log p(x) - log q(x)] over target samples xs (shape (n, d))."""
    xs = _check_batch("xs", xs, q.dim)
    return float(_forward_rows(_theta(q), xs, target.log_prob(xs))[0][0])


def forward_kl_grad(q: DiagonalGaussian, xs: np.ndarray) -> GradReport:
    """Gradient of forward_kl_loss: minus the mean model score at fixed xs."""
    _, grad, second = _forward_rows(_theta(q), _check_batch("xs", xs, q.dim),
                                    moments=True)
    return _grad_report(grad, second)


def reverse_kl_loss(q: DiagonalGaussian, target, eps: np.ndarray) -> float:
    """mean[log q(x) - log p(x)] at x = mu + sigma eps."""
    return _one_q_side_row(q, target, 0.0, eps)[0].loss


def reverse_kl_grad(q: DiagonalGaussian, target, eps: np.ndarray) -> GradReport:
    """Pathwise derivative of reverse_kl_loss: the srfe gradient's kernel
    with uniform weights and scale -1 (the tau -> 0 endpoint)."""
    return _one_q_side_row(q, target, 0.0, eps)[1]


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
