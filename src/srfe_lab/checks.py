"""Numerical verification suite for the free-energy divergence family.

Every claim the library leans on gets an executable probe here: limit
behaviour at the interpolation endpoints, endpoint expansions with their
quadratic convergence rates, the local Fisher metric, tail bounds, KL
upper bounds, gradient identities, monotone equivalence with the power
divergence, the mixed-partial witness that the family is not an
f-divergence, and the one-sample estimator moment bounds.  Each probe
returns a CheckReport; run_all assembles the full battery.

Checks are deterministic given their seeds.  Thresholds live next to the
quantities they bound, and the pass flag is always recomputable from the
report fields.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .discrete import (
    DiscreteDist,
    _cr_from_log_overlap,
    _log_overlap,
    _row_dot,
    _srfe_from_log_overlap,
    cr_expansion_prediction,
    cr_standard,
    escort,
    exact_tail_prob,
    expansion_prediction,
    kl_discrete,
    kl_upper_bound_gap,
    mixed_partial_probe,
    monotone_map,
    srfe_discrete,
    surprisal_stats,
    tail_bound,
)
from .estimators import _KINDS, exact_second_moment, softmax
from .gaussians import BLOCK_ROWS, srfe_equal_covariance

TAU_GRID_3 = (0.2, 0.5, 0.8)
TAU_GRID_9 = tuple(round(0.1 * k, 1) for k in range(1, 10))
A_GRID_31 = tuple(np.linspace(-1.0, 2.0, 31))


@dataclass(frozen=True, eq=False)
class CheckReport:
    name: str
    passed: bool
    observed: np.ndarray
    threshold: np.ndarray
    details: str

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": bool(self.passed),
            "observed": [float(x) for x in np.atleast_1d(self.observed)],
            "threshold": [float(x) for x in np.atleast_1d(self.threshold)],
            "details": self.details,
        }


def _report(name: str, passed: bool, observed, threshold, details: str) -> CheckReport:
    return CheckReport(name, bool(passed),
                       np.asarray(observed, dtype=float),
                       np.asarray(threshold, dtype=float), details)


def dirichlet_pair(rng: np.random.Generator, size: int,
                   n: int | None = None) -> tuple[DiscreteDist, DiscreteDist]:
    """A random pair of fully-supported distributions on `size` points, or
    with n a batch of n pairs, drawn in the order n single calls draw them."""
    draws = rng.dirichlet(np.ones(size), size=2 if n is None else (n, 2))
    return (DiscreteDist.from_unnormalized(draws[..., 0, :]),
            DiscreteDist.from_unnormalized(draws[..., 1, :]))


def check_kl_limits(p: DiscreteDist, q: DiscreteDist) -> CheckReport:
    """Endpoint limits: tau -> 1 recovers KL(p||q), tau -> 0 recovers KL(q||p).

    The error at distance eps from an endpoint shrinks linearly, so halving
    eps (0.02 to 0.01) should roughly halve it; the same holds for the power
    divergence as its order approaches 0 (KL(p||q)) and -1 (KL(q||p)).
    """
    eps = np.array([0.02, 0.01])
    kf, kr = kl_discrete(p, q), kl_discrete(q, p)
    errs = np.abs([
        srfe_discrete(p, q, 1.0 - eps) - kf,
        srfe_discrete(p, q, eps) - kr,
        cr_standard(p, q, eps) - kf,
        cr_standard(p, q, -1.0 + eps) - kr,
    ])
    if errs.max() < 1e-12:
        # degenerate instance (p == q): the limits hold exactly
        return _report("kl_limits", True, errs.ravel(), [1e-12] * 8,
                       "all endpoint errors below 1e-12")
    ratios = errs[:, 0] / errs[:, 1]
    in_bracket = (ratios >= 1.7) & (ratios <= 2.3)

    # first-order slope of the error matches the expansion coefficient
    slope_f = abs(kf - 0.5 * surprisal_stats(p, q).variance)
    slope_r = abs(kr - 0.5 * surprisal_stats(q, p).variance)
    slope_obs = errs[:2, 1] / eps[1]
    slope_ok = all(abs(obs - pred) <= 0.25 * pred
                   for obs, pred in zip(slope_obs, (slope_f, slope_r)) if pred > 1e-8)
    return _report(
        "kl_limits", bool(in_bracket.all()) and slope_ok,
        np.concatenate([ratios, slope_obs]),
        [1.7, 2.3, 1.7, 2.3, slope_f, slope_r],
        "error ratios at eps 0.02/0.01 (want within [1.7, 2.3]): "
        f"{np.round(ratios, 3).tolist()}; "
        f"observed slopes {np.round(slope_obs, 5).tolist()} vs predicted "
        f"[{slope_f:.5f}, {slope_r:.5f}]",
    )


def check_expansions(p: DiscreteDist, q: DiscreteDist) -> CheckReport:
    """Quadratic remainder of the first-order endpoint expansions.

    Halving the distance to the endpoint (0.02 to 0.01) should cut the
    residual by about 4x (bracket [3, 5]); same for the power-divergence
    expansion in its order parameter.
    """
    steps = np.array([0.02, 0.01])
    residuals = np.abs([
        srfe_discrete(p, q, 1.0 - steps)
        - expansion_prediction(p, q, 1.0 - steps, "forward"),
        srfe_discrete(p, q, steps) - expansion_prediction(p, q, steps, "reverse"),
        cr_standard(p, q, steps) - cr_expansion_prediction(p, q, steps),
    ])
    if residuals[:, 0].max() < 1e-13:
        return _report("expansions", True, [4.0, 4.0, 4.0], [3.0, 5.0],
                       "residuals vanish (p == q)")
    ratios = residuals[:, 0] / residuals[:, 1]
    ok = ((ratios >= 3.0) & (ratios <= 5.0)).all()
    return _report(
        "expansions", bool(ok), ratios, [3.0, 5.0],
        "residual ratios at step 0.02 vs 0.01 "
        f"(forward, reverse, power-divergence): {np.round(ratios, 3).tolist()}",
    )


def _srfe_gaussian_location(shift: float, sigma: float, tau):
    # Same-scale normals have overlap integral exp(-tau(1-tau) shift^2 / (2 sigma^2)),
    # in closed form; the defining ratio is then evaluated in ordinary float
    # arithmetic so tau genuinely flows through the computation.
    log_f = -tau * (1.0 - tau) * shift * shift / (2.0 * sigma * sigma)
    return -log_f / (tau * (1.0 - tau))


def check_fisher_metric(sigma: float) -> CheckReport:
    """Local curvature equals the Fisher information of the location family.

    For N(theta, sigma^2) the divergence between parameters theta and
    theta + delta is delta^2 / (2 sigma^2) at every interpolation weight, so
    the second difference quotient (delta = 1e-3) must give 1/sigma^2 to
    relative error 1e-3, with a cross-tau spread of at most 1e-8.
    """
    rel_tol, spread_tol = 1e-3, 1e-8
    fisher = 1.0 / (sigma * sigma)
    delta = 1e-3
    tau = np.asarray(TAU_GRID_3)
    fd2 = (_srfe_gaussian_location(delta, sigma, tau)
           + _srfe_gaussian_location(-delta, sigma, tau)) / (delta * delta)
    rel_err = np.abs(fd2 - fisher) / fisher
    spread = (fd2.max() - fd2.min()) / fisher
    ok = rel_err.max() <= rel_tol and spread <= spread_tol
    return _report(
        f"fisher_metric_sigma_{sigma:g}", bool(ok),
        np.append(rel_err, spread), [rel_tol] * len(TAU_GRID_3) + [spread_tol],
        f"sigma={sigma}: second difference vs 1/sigma^2 rel errors "
        f"{[float(f'{e:.2e}') for e in rel_err]}, cross-tau spread {spread:.2e}",
    )


def check_fisher_metric_simplex() -> CheckReport:
    """Local curvature on the simplex matches the Fisher quadratic form.

    Along p + t d (d a tangent direction) the divergence is
    (t^2/2) sum(d^2/p) up to a cubic remainder whose tau dependence is
    bounded by t^3 sum|d|^3 / p^2, so values across tau agree to that order.
    Probed at t = 0.01.
    """
    t = 1e-2
    p = np.array([0.3, 0.25, 0.2, 0.15, 0.1])
    d = np.array([1.0, -1.0, 0.5, -0.5, 0.0])
    base = DiscreteDist(p)
    quad = 0.5 * t * t * float(np.sum(d * d / p))
    cubic = t ** 3 * float(np.sum(np.abs(d) ** 3 / p ** 2))
    signs = np.array([[1.0], [-1.0]])
    moved = DiscreteDist.from_unnormalized(p + signs * t * d)
    vals = srfe_discrete(base, moved, np.asarray(TAU_GRID_3)[:, None])
    resid = np.abs(vals - quad).max()
    spread = float(vals[:, 0].max() - vals[:, 0].min())
    ok = resid <= cubic and spread <= cubic
    return _report(
        "fisher_metric_simplex", bool(ok), [resid, spread], [cubic, cubic],
        f"worst |value - quadratic form| {resid:.3e} and cross-tau spread "
        f"{spread:.3e}, both within the cubic remainder bound {cubic:.3e}",
    )


def check_tail_bounds(p: DiscreteDist, q: DiscreteDist) -> CheckReport:
    """Exceedance probability of the surprisal gap never beats its bound,
    on every pair of the batch (p, q) of shape (..., k); the report counts
    the violations of all pairs and gives the worst margin."""
    a = np.asarray(A_GRID_31)[:, None]
    bounds = tail_bound(p, q, np.asarray(TAU_GRID_9)[:, None, None], a)
    margin = exact_tail_prob(p, q, a) - bounds
    violations = int((margin > 0).sum())
    return _report(
        "tail_bounds", violations == 0, [violations], [0],
        f"{len(TAU_GRID_9)}x{len(A_GRID_31)} grid, {violations} violations, "
        f"worst exact-minus-bound margin {margin.max():.3e}",
    )


def check_tail_bounds_mc(seed: int = 0) -> CheckReport:
    """Monte-Carlo tail check on a same-scale normal pair.

    Empirical exceedance frequencies may sit above the bound only by
    sampling noise; four binomial standard errors of slack makes a false
    alarm essentially impossible at n = 10^6.

    For p = N(shift, v) and q = N(0, v) a draw of q is x = sqrt(v) z with
    z standard normal, and the gap log p(x) - log q(x) = shift (2x - shift)
    / (2v) increases with z, so gap < a exactly when z < z_a = (a v / shift
    + shift / 2) / sqrt(v).  The n normals are drawn BLOCK_ROWS at a time
    from one generator into one buffer (the stream of one n-draw sample of
    q), and each sorted block is counted below the levels z_a: no density is
    evaluated, and the check holds one block, not all n.
    """
    mean_shift, variance, n = 1.0, 0.5, 10 ** 6
    a = np.asarray(A_GRID_31)
    z_levels = (a * variance / mean_shift + 0.5 * mean_shift) / np.sqrt(variance)
    rng = np.random.default_rng(seed)
    block = np.empty(BLOCK_ROWS)
    below = np.zeros(a.shape, dtype=np.int64)
    for start in range(0, n, BLOCK_ROWS):
        z = rng.standard_normal(out=block[:n - start])
        z.sort()
        below += np.searchsorted(z, z_levels, side="left")
    freq = (n - below) / n
    slack = 4.0 * np.sqrt(freq * (1.0 - freq) / n)
    tau = np.asarray(TAU_GRID_9)[:, None]
    log_f = -tau * (1.0 - tau) * srfe_equal_covariance([mean_shift], [0.0], variance)
    margin = freq - np.exp(-tau * a + log_f) - slack
    violations = int((margin > 0).sum())
    return _report(
        "tail_bounds_mc", violations == 0, [violations], [0],
        f"normal pair shift {mean_shift}, variance {variance}, n={n}: "
        f"{violations} violations, worst margin {margin.max():.3e}",
    )


def check_kl_upper_bounds(p: DiscreteDist, q: DiscreteDist) -> CheckReport:
    """Scaled KL in either direction upper-bounds the divergence, on every
    pair of the batch (p, q) of shape (n, k) at every weight.

    Also exercises a nearly-disjoint pair where the slack becomes large
    and positive rather than degenerate.
    """
    gaps = kl_upper_bound_gap(p, q, np.asarray(TAU_GRID_9)[:, None])
    min_gap = float(np.min(gaps))
    near = DiscreteDist(np.array([1.0 - 1e-9, 1e-9]))
    far = DiscreteDist(np.array([1e-9, 1.0 - 1e-9]))
    nd_gap = kl_upper_bound_gap(near, far, 0.5)
    ok = min_gap >= -1e-12 and nd_gap >= 1.0
    return _report(
        "kl_upper_bounds", bool(ok), [min_gap, nd_gap], [-1e-12, 1.0],
        f"{gaps.size // len(TAU_GRID_9)} pairs x {len(TAU_GRID_9)} weights: "
        f"min gap {min_gap:.3e}; "
        f"nearly-disjoint witness gap {nd_gap:.3f}",
    )


def check_gradient_identity(p: DiscreteDist, logits: np.ndarray,
                            tau) -> CheckReport:
    """Closed-form logit gradients vs central differences, softmax family.

    The free-energy gradient is -(escort - q)/tau; the power-divergence
    gradient at order tau - 1 is -(1/tau) E_q[(p/q)^tau (onehot - q)],
    whose baseline-subtracted variant is algebraically identical because
    scores average to zero.  Central differences take step 1e-5.

    Takes one instance, or a batch: p and logits of shape (..., k) and tau
    of the batch shape.  The report gives each error's maximum over the
    batch and passes iff every instance passes.
    """
    fd_step = 1e-5
    logits = np.asarray(logits, dtype=float)
    tau_col = np.asarray(tau, dtype=float)[..., None]
    q = softmax(logits)
    q_dist = DiscreteDist.from_unnormalized(q)

    closed_srfe = -(escort(p, q_dist, tau).probs - q) / tau_col
    u_tau = (p.probs / q) ** tau_col
    mean_u = _row_dot(q, u_tau)[..., None]
    closed_cr = -q * (u_tau - mean_u) / tau_col
    baselined = -q * ((u_tau - 1.0) - (mean_u - 1.0)) / tau_col

    # row j of moved[0] / moved[1] moves logit j by +- fd_step, and meets
    # its instance's p and tau as one more batch axis
    bumps = fd_step * np.eye(logits.shape[-1])
    moved = np.stack([logits[..., None, :] + bumps, logits[..., None, :] - bumps])
    moved = DiscreteDist.from_unnormalized(softmax(moved))
    p_rows = DiscreteDist(p.probs[..., None, :])
    fd_srfe = np.subtract(*srfe_discrete(p_rows, moved, tau_col)) / (2 * fd_step)
    fd_cr = np.subtract(*cr_standard(p_rows, moved, tau_col - 1.0)) / (2 * fd_step)

    err_srfe = float(np.abs(fd_srfe - closed_srfe).max())
    err_cr = float(np.abs(fd_cr - closed_cr).max())
    err_base = float(np.abs(closed_cr - baselined).max())
    ok = err_srfe <= 1e-6 and err_cr <= 1e-6 and err_base <= 1e-12
    return _report(
        "gradient_identity", ok, [err_srfe, err_cr, err_base], [1e-6, 1e-6, 1e-12],
        f"max |fd - closed|: free-energy {err_srfe:.2e}, power-divergence "
        f"{err_cr:.2e}; baseline-subtracted discrepancy {err_base:.2e}",
    )


def check_monotone_equivalence(seed: int = 0) -> CheckReport:
    """Order agreement with the power divergence, plus the explicit map.

    The two divergences rank alternatives identically, and
    h(d) = -log(1 - tau(1-tau) d) / (tau(1-tau)) carries one value to the
    other exactly.  Probed on 10^4 random triples at tau = 0.5.

    The triples are drawn and evaluated BLOCK_ROWS // 4 at a time from one
    generator, which gives the one-shot stream; each block's log overlap is
    computed once and gives both values.  The disagreements add up and the
    worst map error is the maximum over the blocks.
    """
    n_pairs, tau, block = 10 ** 4, 0.5, BLOCK_ROWS // 4
    rng = np.random.default_rng(seed)
    disagreements, worst_map = 0, 0.0
    for start in range(0, n_pairs, block):
        # one triple (p, q1, q2) per row, drawn in the order of one draw each
        draws = rng.dirichlet(np.ones(5), size=(min(block, n_pairs - start), 3))
        p, q = map(DiscreteDist.from_unnormalized, (draws[:, :1], draws[:, 1:]))
        log_f = _log_overlap(p, q, tau)
        s, d = _srfe_from_log_overlap(log_f, tau), _cr_from_log_overlap(log_f, tau)
        ds, dd = s[:, 0] - s[:, 1], d[:, 0] - d[:, 1]
        distinct = np.abs(dd) > 1e-12 * np.maximum(1.0, np.abs(d).max(axis=1))
        disagreements += int(np.sum(distinct & (ds * dd < 0)))
        worst_map = float(np.max(np.abs(monotone_map(d, tau) - s), initial=worst_map))
    return _report(
        "monotone_equivalence", disagreements == 0 and worst_map <= 1e-12,
        [disagreements, worst_map], [0, 1e-12],
        f"{n_pairs} random triples at weight {tau}: {disagreements} order "
        f"disagreements; worst |map(cr) - value| {worst_map:.2e}",
    )


def check_not_f_divergence(tau: float) -> CheckReport:
    """Mixed second partials distinguish points with equal residual mass.

    An f-divergence against the uniform reference has cross partials that
    depend only on the residual coordinate; the free-energy divergence
    separates (0.1, 0.4) from (0.2, 0.3) even though both leave 0.5 behind.
    KL serves as the control.
    """
    srfe_a = mixed_partial_probe(0.1, 0.4, tau, divergence="srfe")
    srfe_b = mixed_partial_probe(0.2, 0.3, tau, divergence="srfe")
    kl_a = mixed_partial_probe(0.1, 0.4, tau, divergence="kl")
    kl_b = mixed_partial_probe(0.2, 0.3, tau, divergence="kl")
    diff = abs(srfe_a - srfe_b)
    control = abs(kl_a - kl_b)
    ok = diff > 1e-3 and control <= 1e-6
    return _report(
        f"not_f_divergence_tau_{tau:g}", bool(ok), [diff, control],
        [1e-3, 1e-6],
        f"probe difference {diff:.5f} (want > 1e-3); KL control difference "
        f"{control:.2e} (want <= 1e-6)",
    )


def check_second_moment_bounds(p: DiscreteDist,
                               logits: np.ndarray) -> CheckReport:
    """One-sample estimator second moments respect their bounds.

    Also verifies the ratio-form identity (proposal-sampled moment equals
    the power-divergence moment over the overlap squared) and the blow-up
    contrast: along proposals that starve a heavy target point, the
    power-divergence moment grows without bound while the escort-sampled
    moment stays below max-score-norm / tau^2.

    One array program: each kind's moments over the whole weight grid come
    from one exact_second_moment call, and the starved-point sequence is
    one batch of proposals, one call per kind.
    """
    logits = np.asarray(logits, dtype=float)
    moments = {kind: exact_second_moment(kind, p, logits, np.asarray(TAU_GRID_9))
               for kind in _KINDS}
    worst_excess = max(float((rep.empirical - rep.bound * (1.0 + 1e-12)).max())
                       for rep in moments.values())
    cr, sq = moments["cr"], moments["srfe_q"]
    ratio_err = np.abs(sq.empirical * cr.bound - cr.empirical * sq.bound)
    scale = np.maximum(1.0, cr.empirical * sq.bound)
    worst_ratio = float((ratio_err / scale).max())

    # starved-point sequence: proposal mass 10^-k on the heaviest target
    # point, k = 2..8, one proposal per row
    tau_v = 0.7
    heavy_dist = DiscreteDist(np.array([0.4, 0.3, 0.2, 0.1]))
    eps = np.array([10.0 ** -k for k in range(2, 9)])
    q = np.empty((eps.size, 4))
    q[:, 0], q[:, 1:] = eps, ((1.0 - eps) / 3.0)[:, None]
    lk = np.log(q)
    cr_series = exact_second_moment("cr", heavy_dist, lk, tau_v).empirical
    esc = exact_second_moment("srfe_escort", heavy_dist, lk, tau_v)
    escort_ok = bool((esc.empirical <= esc.bound * (1.0 + 1e-12)).all())
    grows = bool((np.diff(cr_series) > 0).all())
    span = cr_series[-1] / cr_series[0]

    ok = worst_excess <= 0 and worst_ratio <= 1e-12 and grows and escort_ok
    return _report(
        "second_moment_bounds", bool(ok),
        [worst_excess, worst_ratio, span], [0.0, 1e-12, 10.0],
        f"worst moment excess over bound {worst_excess:.3e}; ratio-identity "
        f"error {worst_ratio:.2e}; starved-point power-divergence moment "
        f"grows monotonically by {span:.1f}x while escort moment stays "
        f"bounded: {escort_ok}",
    )


def _stack_by_size(cases: list[tuple]) -> list[tuple]:
    """Cases stacked field by field along a new first axis, one tuple per
    support size (the last axis of a case's first field), each size's cases
    in their order."""
    groups: dict[int, list[tuple]] = {}
    for case in cases:
        groups.setdefault(case[0].shape[-1], []).append(case)
    return [tuple(map(np.stack, zip(*group))) for group in groups.values()]


def _battery(seed: int) -> list:
    """The checks of run_all(seed) as zero-argument calls, one per report
    and in report order, with every random input already drawn."""
    rng = np.random.default_rng(seed)
    worked_p = DiscreteDist(np.array([0.5, 0.5]))
    worked_q = DiscreteDist(np.array([0.25, 0.75]))
    kl_pairs = dirichlet_pair(rng, 6, n=1000)
    # drawn instance by instance, checked as one batch per support size
    tail_draws = [tuple(rng.dirichlet(np.ones(int(rng.integers(2, 11))), size=2))
                  for _ in range(50)]
    grad_draws = []
    for _ in range(50):
        size = int(rng.integers(3, 7))
        grad_draws.append((rng.dirichlet(np.ones(size)), rng.standard_normal(size),
                           rng.uniform(0.1, 0.9)))
    moment_p = DiscreteDist.from_unnormalized(rng.dirichlet(np.ones(5)))
    moment_logits = rng.standard_normal(5)

    def tail_sweep() -> CheckReport:
        reports = [check_tail_bounds(*map(DiscreteDist.from_unnormalized, pair))
                   for pair in _stack_by_size(tail_draws)]
        total = int(sum(r.observed[0] for r in reports))
        return _report("tail_bounds", all(r.passed for r in reports), [total], [0],
                       f"{len(tail_draws)} random pairs, 9x31 grid each: "
                       f"{total} violations")

    def grad_sweep() -> CheckReport:
        reports = [check_gradient_identity(DiscreteDist.from_unnormalized(p), lg, tau)
                   for p, lg, tau in _stack_by_size(grad_draws)]
        worst = np.max([r.observed for r in reports], axis=0)
        return _report("gradient_identity", all(r.passed for r in reports), worst,
                       [1e-6, 1e-6, 1e-12],
                       f"{len(grad_draws)} random softmax instances, worst "
                       f"errors {[float(f'{w:.2e}') for w in worst]}")

    return [
        lambda: check_kl_limits(worked_p, worked_q),
        lambda: check_expansions(worked_p, worked_q),
        lambda: check_fisher_metric(0.5),
        lambda: check_fisher_metric(1.0),
        lambda: check_fisher_metric(2.0),
        check_fisher_metric_simplex,
        tail_sweep,
        lambda: check_tail_bounds_mc(seed=seed + 1),
        lambda: check_kl_upper_bounds(*kl_pairs),
        grad_sweep,
        lambda: check_monotone_equivalence(seed=seed + 2),
        lambda: check_not_f_divergence(0.3),
        lambda: check_not_f_divergence(0.5),
        lambda: check_not_f_divergence(0.9),
        lambda: check_second_moment_bounds(moment_p, moment_logits),
    ]


def run_all(seed: int = 0, inject_failure: bool = False) -> list[CheckReport]:
    """The full battery, deterministic for a given seed.

    inject_failure adds a negative-control report that must fail: the
    observed values of the sigma = 1 curvature check against zero
    thresholds.
    """
    reports = [check() for check in _battery(seed)]
    if inject_failure:
        observed = check_fisher_metric(1.0).observed
        reports.append(_report("injected_failure", (observed <= 0.0).all(),
                               observed, np.zeros(observed.size),
                               "negative control: curvature check with zero "
                               "tolerance, must fail"))
    return reports
