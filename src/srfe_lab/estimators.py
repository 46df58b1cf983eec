"""Monte Carlo losses and pathwise gradients for fitting a mean-field Gaussian.

The free-energy loss follows the clamped estimator: draw eps, push it through
the reparameterization, average exp(tau * log ratio) with a running-max shift,
clamp the overlap estimate into [F_CLAMP_LOW, F_CLAMP_HIGH] = [1e-10, 1], and
take -log of it over tau(1-tau).  Gradients are exact derivatives of that
loss in (mu, log_sigma); when the clamp is active the loss is locally
constant and the gradient is zero.

Targets are duck-typed, with four members.  dim is the dimension d of
their points.  On a batch x of shape (n, d), log_prob(x) gives the (n,) log
densities and log_prob_and_score(x) gives them together with their (n, d)
x-gradients, from one pass; sample(n, rng) draws (n, d) points.  The
free-energy step and the reverse-KL loss and gradient read
log_prob_and_score, forward KL log_prob and the samples.  The Gaussian
models in srfe_lab.gaussians provide all four.

The kernels work on stacks: J models, theta of shape (J, 2, d) whose rows
are (mu, log_sigma), fitted on one shared batch of n points.  _q_side_step
is the one q-side step, for the stacks of srfe_lab.training and for a
single fit alike: _q_rows makes x = mu + sigma eps and log q for every row,
_target_rows makes one target pass per run of rows with one target, and
_q_side_rows turns them into losses and pathwise gradients, in one array
program for every row, reverse-KL (tau = 0) and clamped rows included.
_forward_rows does the same for forward KL on target samples and their
log densities, which it takes from its caller: it calls no target, so a
forward-KL stack of srfe_lab.training makes both its target calls where it
draws.  The five fitting entry points (srfe_mc_step and the forward- and
reverse-KL losses and gradients) are the kernels' one-row case; they take
their batch, eps or xs, of shape (n, d) with n >= 1 and raise a ValueError
naming that shape otherwise, and they raise the exception of a failed
target pass.

Buffers follow the rule of srfe_lab.gaussians: a call owns what it
allocates, fills it in place, and never writes an argument, so a read-only
noise batch shared between fits is safe.  Every per-point stack buffer is
a C-ordered (d, J, n) or (J, n) array filled through out=, so each of its
rows is one contiguous length-n row whose sum pairs its terms as a single
fit's does: every row stays bit-identical to the fit stepped alone.  The
gradient takes one coordinate at a time on (J, n) temporaries, after
_q_side_step has dropped x and log q.

The second-moment tools at the bottom work on a finite support with a
softmax-parameterized model q, where everything can be enumerated exactly.
_moment_pieces is the one place that tells the three estimator kinds
apart: it gives each kind's per-outcome table, the law X is drawn from,
the weights a, the divisor c, the squared score norms and the bound.
exact_second_moment is the mean (1/tau^2) a ||score||^2 / c under that
law, enumerated, and estimator_second_moment the same mean over n draws
from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from srfe_lab.discrete import (AbsoluteContinuityError, DiscreteDist,
                               DisjointSupportError, _check_tau_open,
                               _logsumexp_terms, _require_count)
from srfe_lab.gaussians import (DiagonalGaussian, _log_norm, _log_prob_rows,
                                _param_score_rows, _sum_rows, _transform_rows)

__all__ = [
    "F_CLAMP_LOW",
    "F_CLAMP_HIGH",
    "JOB_ERRORS",
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

# The errors of a target call that end the jobs which made it, and not the
# call that fits them: a fitting step, a stack of srfe_lab.training and a
# cell of srfe_lab.experiments catch these, and let any other propagate.
JOB_ERRORS = (RuntimeError, FloatingPointError)


@dataclass(frozen=True)
class LossReport:
    loss: float
    f_hat: float
    max_log_ratio: float
    clamped: bool


@dataclass(frozen=True, eq=False)
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
    gradient.  The squared norm adds s_0^2, b_0^2, s_1^2, b_1^2, ... left
    to right (b_k = dr/dlogsigma_k).
    """
    d, L, n = score.shape
    d_mu, d_ls = np.empty((d, L)), np.empty((d, L))
    b, wb = np.empty((L, n)), np.empty((L, n))
    sq = np.zeros((L, n)) if moments else None
    for k, (s, e, sg) in enumerate(zip(score, eps.T, sigma)):
        np.multiply(e, sg, out=b)
        b *= s
        b += 1.0
        np.multiply(s, w, out=wb).sum(axis=1, out=d_mu[k])
        np.multiply(b, w, out=wb).sum(axis=1, out=d_ls[k])
        if moments:
            sq += np.square(s, out=wb)
            sq += np.square(b, out=b)
    d_mu *= scale
    d_ls *= scale
    if not moments:
        return d_mu, d_ls, None
    c = np.multiply(w, n)
    c *= scale[:, None]
    np.multiply(c, c, out=c)
    c *= sq
    return d_mu, d_ls, c.mean(axis=1)


def _q_side_rows(theta: np.ndarray, eps: np.ndarray, r: np.ndarray,
                 score: np.ndarray, taus, moments: bool = False):
    """Losses and exact gradients of J q-side rows from one pass: theta (J,
    2, d), eps (n, d), r = log p - log q (J, n), which becomes the weights,
    and the score (d, J, n).  Row j is a free-energy row at taus[j] in
    (0, 1), or a reverse-KL row at taus[j] = 0.

    Returns a LossReport per row, the gradients as (J, 2, d) and, if
    moments, the second moments as (J,) (else None; the fitting loop does
    not read them).  A row weighs its samples by exp(tau r_i), shifted by
    the row max, and its gradient has scale -1/(1 - tau).  A free-energy row
    with no sample in the target's support (every r = -inf, f_hat = 0)
    clamps low, and a clamped row's loss is locally flat, so its gradient
    and second moment are zero.  A reverse-KL row is the tau = 0 row:
    weights exactly 1/n, scale -1, loss -mean(r), and f_hat 1 (the overlap
    at tau = 0).  Every row takes the same array program.
    """
    n = r.shape[1]
    tau = np.array(taus, dtype=np.float64)
    reverse = tau == 0.0
    # np.mean's sum and division, without its fixed cost
    kl = iter(r[reverse].sum(axis=1).tolist())
    r_max = r.max(axis=1)
    # shift by the max so the largest weight is exactly 1; a row with no
    # support keeps its -inf entries, whose weights come out 0
    r -= np.where(reverse | (r_max == -math.inf), 0.0, r_max)[:, None]
    # a reverse-KL row's weights are exp(0) = 1 whatever r holds, +-inf and
    # nan included
    r[reverse] = 0.0
    r *= tau[:, None]
    np.exp(r, out=r)
    sums = r.sum(axis=1)
    reports = []
    # scalar math.log and math.exp (in _clamp_log_f), not numpy's: on an
    # AVX-512 host with numpy 2.4.6, numpy's float64 log rounds unlike
    # math.log on 225 of 200 000 uniform draws in (0, 10), and exp unlike
    # math.exp on 9325 in (-20, 20), so an array loop would move the last
    # bits of the losses
    for t, r_top, total in zip(tau.tolist(), r_max.tolist(), sums.tolist()):
        if t == 0.0:
            reports.append(LossReport(loss=-(next(kl) / n), f_hat=1.0,
                                      max_log_ratio=r_top, clamped=False))
            continue
        log_f = (-math.inf if r_top == -math.inf
                 else t * r_top + math.log(total / n))
        f_hat, clamped = _clamp_log_f(log_f)
        reports.append(LossReport(loss=-math.log(f_hat) / (t * (1.0 - t)),
                                  f_hat=f_hat, max_log_ratio=r_top,
                                  clamped=clamped))
    # a row with no support divides 0 by 0 here; it is clamped
    with np.errstate(invalid="ignore"):
        r /= sums[:, None]
    d_mu, d_ls, second = _pathwise_rows(score, eps, _columns(theta)[1], r,
                                        -1.0 / (1.0 - tau), moments)
    grad = np.stack((d_mu.T, d_ls.T), axis=1)
    clamped = [rep.clamped for rep in reports]
    grad[clamped] = 0.0
    if moments:
        second[clamped] = 0.0
    return reports, grad, second


def _q_side_step(theta: np.ndarray, eps: np.ndarray, targets, taus,
                 moments: bool = False):
    """One q-side step of J rows on eps (n, d): row j fits theta[j] to
    targets[j] at taus[j] (0 for reverse KL), with rows of one target
    adjacent.

    Makes x and log q for every row (_q_rows), one log_prob_and_score pass
    per run of rows whose target is one object, split where targets[j] is
    not targets[j - 1] (_target_rows), and the losses and gradients
    (_q_side_rows).  Returns the reports, the gradients, the second moments
    (None unless moments) and {row: exception} for each row whose pass
    raised one of JOB_ERRORS; those rows get harmless values (r = 0, score
    0), and any other exception propagates.
    """
    x, log_q = _q_rows(theta, eps)
    r, score = np.empty(log_q.shape), np.empty(x.shape)
    failed = {}
    bounds = [0, *(j for j in range(1, len(targets))
                   if targets[j] is not targets[j - 1]), len(targets)]
    for start, stop in zip(bounds, bounds[1:]):
        rows = slice(start, stop)
        try:
            _target_rows(targets[start], x[:, rows], log_q[rows], r[rows],
                         score[:, rows])
        except JOB_ERRORS as exc:
            r[rows] = 0.0
            score[:, rows] = 0.0
            failed.update(dict.fromkeys(range(start, stop), exc))
    del x, log_q
    return (*_q_side_rows(theta, eps, r, score, taus, moments), failed)


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


def _one_q_side_row(q: DiagonalGaussian, target, tau: float, eps):
    """One q-side row at tau (0 for reverse KL): its LossReport and
    GradReport.  An error of the target pass is raised."""
    eps = _check_batch("eps", eps, q.dim)
    (report,), grad, second, failed = _q_side_step(_theta(q), eps, [target],
                                                   [tau], moments=True)
    if failed:
        raise failed[0]
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
    _, e, total = _logsumexp_terms(np.asarray(logits, dtype=np.float64))
    return e / total[..., None]


def softmax_scores(logits: np.ndarray) -> np.ndarray:
    """Rows are grad_theta log q_theta(j) = e_j - q for the softmax family."""
    q = softmax(logits)
    return np.eye(q.size) - q[None, :]


def _moment_pieces(kind: str, p: DiscreteDist, logits: np.ndarray,
                   tau: float):
    """The per-outcome table of kind that both second-moment tools read,
    after kind and tau validation: the law X is drawn from, the weights a,
    the divisor c, the squared score norms and the analytic bound.

    Every kind has g(j) = -(1/tau) sqrt(a_j / c) score_j, so E||g||^2 =
    (1/tau^2) sum_j law_j a_j ||score_j||^2 / c.  The escort kind draws
    from the escort r with a = 1 and c = 1; "cr" and "srfe_q" draw from q
    with a = u^(2 tau), u = p/q, and c = 1 for "cr", F^2 for "srfe_q".
    With C = max_j ||score_j||^2, the bound is (C/tau^2) sum_j q_j a_j / c
    for the q kinds and C/tau^2 for the escort kind.
    """
    if kind not in _KINDS:
        raise ValueError(f"kind must be one of {_KINDS}, got {kind!r}")
    _check_tau_open(tau)
    q = softmax(logits)
    if p.size != q.size:
        raise ValueError("support size mismatch")
    bridge = p.probs ** tau * q ** (1.0 - tau)
    f = float(bridge.sum())
    if f == 0.0:
        raise DisjointSupportError("p and q share no support, so F = 0")
    scores = softmax_scores(logits)
    norms2 = (scores * scores).sum(axis=1)
    if kind == "srfe_escort":
        law, a, c, s = bridge / f, np.ones(q.size), 1.0, 1.0
    else:
        if np.any(p.support & (q == 0.0)):
            raise AbsoluteContinuityError(
                f"{kind!r} needs u = p/q, and q is 0 where p has mass")
        # an outcome that q never draws adds 0, not the nan of 0/0
        with np.errstate(over="ignore"):
            u = np.divide(p.probs, q, out=np.zeros(q.size), where=q > 0.0)
        law, a = q, u ** (2.0 * tau)
        # p/q overflows where q is subnormal, though u^(2 tau) need not
        big = np.isinf(u)
        a[big] = np.exp(2.0 * tau * (np.log(p.probs[big]) - np.log(q[big])))
        c = f * f if kind == "srfe_q" else 1.0
        s = float((q * a).sum())
    bound = 1.0 / (tau * tau) * float(norms2.max()) * s / c
    return law, a, c, norms2, bound


def exact_second_moment(kind: str, p: DiscreteDist, logits: np.ndarray,
                        tau: float) -> SecondMomentReport:
    """Enumerated E||g||^2 and its analytic bound for one-sample estimators.

    kind "cr":          g = -(1/tau) u(X)^tau score(X),        X ~ q
    kind "srfe_escort": g = -(1/tau) score(X),                 X ~ escort
    kind "srfe_q":      g = -(1/tau) (u(X)^tau / F) score(X),  X ~ q

    Bounds use C = max_j ||score_j||^2 (see _moment_pieces).  Raises
    DisjointSupportError when F = 0, and AbsoluteContinuityError for "cr"
    and "srfe_q" when q is 0 where p has mass.
    """
    law, a, c, norms2, bound = _moment_pieces(kind, p, logits, tau)
    total = float(((law * a) * norms2).sum())
    return SecondMomentReport(empirical=1.0 / (tau * tau) * total / c,
                              bound=bound)


def estimator_second_moment(kind: str, p: DiscreteDist, logits: np.ndarray,
                            tau: float, n: int,
                            rng: np.random.Generator) -> SecondMomentReport:
    """Sampled mean ||g||^2 over n one-sample draws, with the analytic bound;
    n must be an integer >= 1, and the errors are exact_second_moment's."""
    law, a, c, norms2, bound = _moment_pieces(kind, p, logits, tau)
    _require_count("n", n, 1)
    idx = rng.choice(law.size, size=n, p=law / law.sum())
    sq = 1.0 / (tau * tau) * a[idx] * norms2[idx] / c
    return SecondMomentReport(empirical=float(sq.mean()), bound=bound)
