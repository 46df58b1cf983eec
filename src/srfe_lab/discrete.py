"""Finite distributions and the tau-coefficient divergence family.

Everything here works on explicit probability vectors.  The central quantity
is the overlap coefficient F(tau) = sum_i p_i^tau q_i^(1-tau), from which the
free-energy divergence, the associated Cressie-Read form, escort
distributions, tail bounds and the variational characterization all derive.
Sums over the support are done in the log domain where cancellation matters.

Broadcasting: a DiscreteDist holds one distribution of shape (k,) or a batch
of shape (..., k), one distribution per row along the last axis.  Every pair
kernel takes p and q with the same k and batch shapes that broadcast, and
broadcasts its scalar argument (tau, lam, a or the cr value) against the
batch shape p.shape[:-1]; zero-mass entries are masked, never dropped, so
each row is computed as it would be alone.  A kernel raises its error if
any pair in the batch triggers it, returns a float for a single pair and an
array of the broadcast batch shape otherwise.  variational_minimize and
mixed_partial_probe take a single pair only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "DiscreteDist",
    "SurprisalStats",
    "VariationalSolution",
    "DisjointSupportError",
    "AbsoluteContinuityError",
    "chernoff_coefficient",
    "srfe_discrete",
    "cr_associated",
    "cr_standard",
    "kl_discrete",
    "surprisal_stats",
    "escort",
    "variational_objective",
    "variational_minimize",
    "pythagorean_residual",
    "tail_bound",
    "exact_tail_prob",
    "kl_upper_bound_gap",
    "expansion_prediction",
    "cr_expansion_prediction",
    "monotone_map",
    "mixed_partial_probe",
    "srfe_mixed_partial_analytic",
    "kl_mixed_partial_analytic",
]

# Probability vectors must sum to 1 within this before being accepted.
NORMALIZATION_TOL = 1e-9


class DisjointSupportError(ValueError):
    """p and q share no support, so the overlap coefficient is zero."""


class AbsoluteContinuityError(ValueError):
    """A required density ratio is infinite (mass where the reference has none)."""


@dataclass(frozen=True)
class DiscreteDist:
    """A probability vector on a finite support, or a batch of them.

    probs has shape (k,) or (..., k); each row along the last axis is
    validated on its own.  Use :meth:`from_unnormalized` to renormalize
    arbitrary nonnegative weights instead.
    """

    probs: np.ndarray

    def __post_init__(self):
        p = np.array(self.probs, dtype=np.float64)
        if p.ndim == 0 or p.shape[-1] == 0:
            raise ValueError("probs must have a nonempty last axis")
        if not np.all(np.isfinite(p)):
            raise ValueError("probs must be finite")
        if np.any(p < 0):
            raise ValueError("probs must be nonnegative")
        total = np.atleast_1d(p.sum(axis=-1))
        off = total[np.abs(total - 1.0) > NORMALIZATION_TOL]
        if off.size:
            raise ValueError(f"probs sum to {off[0]:.12g}, not 1")
        p.flags.writeable = False
        object.__setattr__(self, "probs", p)

    @classmethod
    def from_unnormalized(cls, weights) -> "DiscreteDist":
        w = np.asarray(weights, dtype=np.float64)
        if np.any(w < 0) or not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite and nonnegative")
        total = w.sum(axis=-1, keepdims=True)
        if np.any(total <= 0):
            raise ValueError("weights must have positive total mass")
        return cls(w / total)

    @property
    def size(self) -> int:
        """Number of support points k."""
        return int(self.probs.shape[-1])

    @property
    def support(self) -> np.ndarray:
        return self.probs > 0


@dataclass(frozen=True)
class SurprisalStats:
    """Mean and variance of the log ratio log(p/q) under the first argument
    (floats for a single pair, arrays for a batch)."""

    mean: float
    variance: float


@dataclass(frozen=True)
class VariationalSolution:
    argmin: DiscreteDist
    value: float
    iterations: int
    converged: bool


def _log(x: np.ndarray) -> np.ndarray:
    # log(0) = -inf without the divide warning
    with np.errstate(divide="ignore"):
        return np.log(x)


def _logsumexp_terms(a: np.ndarray, axis: int = -1):
    """(log sum exp(a), the shifted terms exp(a - m), their sum) along axis.

    m is the max along axis, kept as a length-1 axis; a row whose max is not
    finite is not shifted, so an all -inf row gives -inf.
    """
    m = a.max(axis=axis, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    e = np.exp(a - m)
    s = e.sum(axis=axis)
    return _log(s) + np.squeeze(m, axis=axis), e, s


def _logsumexp(a: np.ndarray, axis: int = -1):
    """log sum exp(a) along axis; an all -inf row gives -inf."""
    return _logsumexp_terms(a, axis)[0]


def _row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum_i a_i b_i along the last axis, each row summed as np.dot sums it."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _float_or_array(x):
    """A single pair's result as a float, a batch's as an array."""
    return float(x) if np.ndim(x) == 0 else x


def _logs(p: DiscreteDist, q: DiscreteDist) -> tuple[np.ndarray, np.ndarray]:
    if p.size != q.size:
        raise ValueError(f"support sizes differ: {p.size} vs {q.size}")
    return _log(p.probs), _log(q.probs)


def _last_axis(x) -> np.ndarray:
    """A scalar argument broadcast against the batch shape, with a trailing
    axis so that it meets each row."""
    return np.asarray(x, dtype=np.float64)[..., None]


def _check_tau_open(tau):
    t = np.asarray(tau)
    if not np.all((0.0 < t) & (t < 1.0)):
        raise ValueError(f"tau must lie in (0, 1), got {tau}")


def _log_terms(p: DiscreteDist, q: DiscreteDist, tau) -> np.ndarray:
    """tau log p_i + (1 - tau) log q_i on the joint support, -inf off it."""
    lp, lq = _logs(p, q)
    t = _last_axis(tau)
    with np.errstate(invalid="ignore"):  # 0 * -inf off the support
        return np.where(p.support & q.support, t * lp + (1.0 - t) * lq, -np.inf)


def _log_overlap(p: DiscreteDist, q: DiscreteDist, tau) -> np.ndarray:
    """log F(tau) over the joint support, -inf when the supports are disjoint."""
    return _logsumexp(_log_terms(p, q, tau))


def _nonzero_overlap(log_f: np.ndarray, what: str) -> np.ndarray:
    if np.any(log_f == -np.inf):
        raise DisjointSupportError(f"supports are disjoint, {what} undefined")
    return log_f


def _require_absolutely_continuous(p: DiscreteDist, q: DiscreteDist,
                                   message: str, where=True) -> None:
    if np.any(where & p.support & ~q.support):
        raise AbsoluteContinuityError(message)


def chernoff_coefficient(p: DiscreteDist, q: DiscreteDist, tau):
    """F(tau) = sum_i p_i^tau q_i^(1-tau) with 0-mass terms contributing 0.

    Defined for tau in [0, 1]; equals 1 iff p = q, equals 0 iff the supports
    are disjoint.  Endpoints follow the continuous limit: F(0) is the q-mass
    of p's support restricted to q's, and symmetrically for F(1).
    """
    t = np.asarray(tau)
    if not np.all((0.0 <= t) & (t <= 1.0)):
        raise ValueError(f"tau must lie in [0, 1], got {tau}")
    return _float_or_array(np.exp(_log_overlap(p, q, tau)))


def srfe_discrete(p: DiscreteDist, q: DiscreteDist, tau):
    """Free-energy divergence -log F(tau) / (tau (1 - tau)).

    Raises DisjointSupportError when F(tau) = 0.  Nonnegative, zero iff
    p = q; tends to KL(p||q) as tau -> 1 and KL(q||p) as tau -> 0.
    """
    _check_tau_open(tau)
    log_f = _nonzero_overlap(_log_overlap(p, q, tau), "divergence")
    return _float_or_array(-log_f / (tau * (1.0 - tau)))


def cr_associated(p: DiscreteDist, q: DiscreteDist, tau):
    """(1 - F(tau)) / (tau (1 - tau)), the power-divergence companion."""
    _check_tau_open(tau)
    log_f = _log_overlap(p, q, tau)
    # 1 - e^x via expm1 keeps precision when F is close to 1
    return _float_or_array(-np.expm1(log_f) / (tau * (1.0 - tau)))


def cr_standard(p: DiscreteDist, q: DiscreteDist, lam):
    """Cressie-Read divergence sum_i p_i [(p_i/q_i)^lam - 1] / (lam (lam + 1)).

    lam = 0 and lam = -1 are the (excluded) KL limit points.  For lam > 0 the
    ratio must be finite wherever p has mass; for lam < 0 terms with q_i = 0
    vanish on their own.
    """
    lp, lq = _logs(p, q)
    lam_row = _last_axis(lam)
    if np.any((lam_row == 0.0) | (lam_row == -1.0)):
        raise ValueError("lam = 0 and lam = -1 are limit points, not values")
    _require_absolutely_continuous(p, q, "p has mass where q has none",
                                   lam_row > 0)
    with np.errstate(invalid="ignore"):
        gap = lp - lq
        # p_i expm1(lam (log p_i - log q_i)); for q_i = 0, lam < 0 this is -p_i
        terms = np.where(p.support, p.probs * np.expm1(lam_row * gap), 0.0)
    return _float_or_array(terms.sum(axis=-1) / (lam * (lam + 1.0)))


def _log_ratio(p: DiscreteDist, q: DiscreteDist, message: str) -> np.ndarray:
    """log(p_i/q_i) on p's support, 0 off it; q must cover p's support."""
    lp, lq = _logs(p, q)
    _require_absolutely_continuous(p, q, message)
    with np.errstate(invalid="ignore"):
        return np.where(p.support, lp - lq, 0.0)


def kl_discrete(p: DiscreteDist, q: DiscreteDist):
    """KL(p||q) with the 0 log 0 = 0 convention.

    Raises AbsoluteContinuityError if p has mass where q has none.
    """
    gap = _log_ratio(p, q, "p has mass where q has none")
    return _float_or_array(_row_dot(p.probs, gap))


def surprisal_stats(p: DiscreteDist, q: DiscreteDist) -> SurprisalStats:
    """Mean and variance of log(p/q) under p.  The mean is KL(p||q)."""
    gap = _log_ratio(p, q, "log ratio is infinite on p's support")
    mean = _row_dot(p.probs, gap)
    var = _row_dot(p.probs, (gap - mean[..., None]) ** 2)
    return SurprisalStats(mean=_float_or_array(mean),
                          variance=_float_or_array(var))


def escort(p: DiscreteDist, q: DiscreteDist, tau) -> DiscreteDist:
    """Geometric-bridge distribution r_i proportional to p_i^tau q_i^(1-tau)."""
    _check_tau_open(tau)
    terms = _log_terms(p, q, tau)
    log_f = _nonzero_overlap(_logsumexp(terms), "escort")
    return DiscreteDist.from_unnormalized(np.exp(terms - log_f[..., None]))


def variational_objective(r: DiscreteDist, p: DiscreteDist, q: DiscreteDist,
                          tau):
    """J(r) = KL(r||q)/tau + KL(r||p)/(1-tau).

    Minimized over r by the escort distribution, with minimum value equal to
    the free-energy divergence.  r must be supported inside both supports.
    """
    _check_tau_open(tau)
    return kl_discrete(r, q) / tau + kl_discrete(r, p) / (1.0 - tau)


def variational_minimize(p: DiscreteDist, q: DiscreteDist, tau: float,
                         step: float = 0.1, max_iter: int = 10000,
                         tol: float = 1e-6) -> VariationalSolution:
    """Minimize J(r) by multiplicative-weights descent on the simplex.

    Iterates r <- r exp(-step dJ/dr), renormalized, starting from uniform on
    the joint support.  Stops when the L1 change between iterates falls
    below tol.
    """
    _check_tau_open(tau)
    if p.probs.ndim != 1 or q.probs.ndim != 1 or np.ndim(tau):
        raise ValueError("variational_minimize takes a single pair and tau")
    lp, lq = _logs(p, q)
    mask = p.support & q.support
    if not mask.any():
        raise DisjointSupportError("supports are disjoint, objective is infinite")
    lp, lq = lp[mask], lq[mask]
    r = np.full(int(mask.sum()), 1.0 / mask.sum())
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        lr = np.log(r)
        grad = (lr - lq + 1.0) / tau + (lr - lp + 1.0) / (1.0 - tau)
        grad -= grad.mean()  # additive shifts cancel under renormalization
        r_new = r * np.exp(-step * grad)
        r_new /= r_new.sum()
        delta = np.abs(r_new - r).sum()
        r = r_new
        if delta < tol:
            converged = True
            break
    full = np.zeros(p.size)
    full[mask] = r
    argmin = DiscreteDist.from_unnormalized(full)
    value = variational_objective(argmin, p, q, tau)
    return VariationalSolution(argmin=argmin, value=value, iterations=it,
                               converged=converged)


def pythagorean_residual(r: DiscreteDist, p: DiscreteDist, q: DiscreteDist,
                         tau):
    """J(r) - [KL(r||escort)/(tau(1-tau)) + srfe].  Identically zero in exact
    arithmetic for any r supported inside both supports."""
    j = variational_objective(r, p, q, tau)
    bridge = escort(p, q, tau)
    decomposed = kl_discrete(r, bridge) / (tau * (1.0 - tau)) \
        + srfe_discrete(p, q, tau)
    return j - decomposed


def tail_bound(p: DiscreteDist, q: DiscreteDist, tau, a):
    """Chernoff-style bound exp(-tau a) F(tau) on Pr_q[log(p/q) >= a]."""
    _check_tau_open(tau)
    log_f = _nonzero_overlap(_log_overlap(p, q, tau), "bound")
    return _float_or_array(np.exp(-tau * a + log_f))


def exact_tail_prob(p: DiscreteDist, q: DiscreteDist, a):
    """Pr_q[log(p/q) >= a].  Points where p vanishes have log ratio -inf and
    never count for finite a."""
    lp, lq = _logs(p, q)
    with np.errstate(invalid="ignore"):
        counted = q.support & (lp - lq >= _last_axis(a))
    return _float_or_array(np.where(counted, q.probs, 0.0).sum(axis=-1))


def kl_upper_bound_gap(p: DiscreteDist, q: DiscreteDist, tau):
    """min(KL(p||q)/tau, KL(q||p)/(1-tau)) - srfe(p, q, tau).

    Nonnegative: the two bound candidates are J(p) and J(q) for the
    variational objective above, each at least its minimum.  Requires both
    KL directions finite, so the supports must coincide.
    """
    _check_tau_open(tau)
    forward = kl_discrete(p, q) / tau
    reverse = kl_discrete(q, p) / (1.0 - tau)
    return _float_or_array(np.minimum(forward, reverse)
                           - srfe_discrete(p, q, tau))


def expansion_prediction(p: DiscreteDist, q: DiscreteDist, tau,
                         side: str = "forward"):
    """Second-order endpoint expansion of the free-energy divergence.

    side "forward" expands around tau = 1:
        KL(p||q) + (1-tau) (KL(p||q) - Var_p[log(p/q)] / 2)
    side "reverse" expands around tau = 0 with the roles of p and q swapped:
        KL(q||p) + tau (KL(q||p) - Var_q[log(q/p)] / 2)
    """
    _check_tau_open(tau)
    if side == "forward":
        stats = surprisal_stats(p, q)
        return stats.mean + (1.0 - tau) * (stats.mean - 0.5 * stats.variance)
    if side == "reverse":
        stats = surprisal_stats(q, p)
        return stats.mean + tau * (stats.mean - 0.5 * stats.variance)
    raise ValueError(f"side must be 'forward' or 'reverse', got {side!r}")


def cr_expansion_prediction(p: DiscreteDist, q: DiscreteDist, lam):
    """Second-order expansion of cr_standard around lam = 0:

        KL + (lam/2) Var_p[log(p/q)] + lam (KL^2/2 - KL)
    """
    stats = surprisal_stats(p, q)
    kl = stats.mean
    return kl + 0.5 * lam * stats.variance + lam * (0.5 * kl * kl - kl)


def monotone_map(cr_value, tau):
    """Strictly increasing map sending cr_associated to the free-energy value:

        h(d) = -log(1 - tau (1 - tau) d) / (tau (1 - tau))
    """
    _check_tau_open(tau)
    c = tau * (1.0 - tau)
    if np.any(c * np.asarray(cr_value) >= 1.0):
        raise ValueError("cr value outside the map's domain")
    # log1p keeps full precision for nearly-equal pairs (cr near 0)
    return _float_or_array(-np.log1p(-c * np.asarray(cr_value)) / c)


_UNIFORM3 = None


def _uniform3() -> DiscreteDist:
    global _UNIFORM3
    if _UNIFORM3 is None:
        _UNIFORM3 = DiscreteDist(np.full(3, 1.0 / 3.0))
    return _UNIFORM3


def mixed_partial_probe(u: float, v: float, tau: float, h: float = 1e-4,
                        divergence: str = "srfe") -> float:
    """Central-difference mixed partial d2 G / du dv at (u, v).

    G(u, v) is the chosen divergence from (u, v, 1-u-v) to the uniform
    three-point distribution.  For an f-divergence this depends on
    w = 1-u-v only; the free-energy divergence breaks that pattern.
    Uses the four-point stencil with step h in each coordinate.
    """
    if np.ndim(u) or np.ndim(v) or np.ndim(tau):
        raise ValueError("mixed_partial_probe takes a single point and tau")
    if h <= 0:
        raise ValueError("h must be positive")
    if min(u - h, v - h) <= 0 or u + v + 2 * h >= 1:
        raise ValueError("probe stencil leaves the open simplex")

    def g(a: float, b: float) -> float:
        d = DiscreteDist(np.array([a, b, 1.0 - a - b]))
        if divergence == "srfe":
            return srfe_discrete(d, _uniform3(), tau)
        if divergence == "kl":
            return kl_discrete(d, _uniform3())
        raise ValueError(f"unknown divergence {divergence!r}")

    num = g(u + h, v + h) - g(u + h, v - h) - g(u - h, v + h) + g(u - h, v - h)
    return num / (4.0 * h * h)


def srfe_mixed_partial_analytic(u: float, v: float, tau: float) -> float:
    """Closed-form mixed partial of the free-energy probe G above.

    With w = 1-u-v and S = u^tau + v^tau + w^tau,
        G = const - log(S) / (tau (1 - tau)),
    so the mixed partial follows from differentiating log S twice.
    """
    _check_tau_open(tau)
    w = 1.0 - u - v
    if min(u, v, w) <= 0:
        raise ValueError("(u, v) must lie in the open simplex")
    s = u ** tau + v ** tau + w ** tau
    du = tau * (u ** (tau - 1.0) - w ** (tau - 1.0))
    dv = tau * (v ** (tau - 1.0) - w ** (tau - 1.0))
    duv = tau * (tau - 1.0) * w ** (tau - 2.0)
    return -(duv / s - du * dv / (s * s)) / (tau * (1.0 - tau))


def kl_mixed_partial_analytic(u: float, v: float) -> float:
    """Mixed partial of the KL probe: 1 / (1-u-v), a function of w alone."""
    w = 1.0 - u - v
    if min(u, v, w) <= 0:
        raise ValueError("(u, v) must lie in the open simplex")
    return 1.0 / w
