"""Fit diagnostics for a trained mean-field Gaussian.

Four metrics: how many target modes carry model density, importance-sampling
effective sample size with the model as proposal, the gap between the model's
analytic entropy and a Monte Carlo estimate of the target's, and held-out
mean log likelihood.  Stochastic metrics draw from fixed offset seeds so a
full evaluation is reproducible from one base seed.  The target-entropy
estimate does not depend on the model, so a caller draws it once per target
and seed (target_entropy) and supplies it to evaluate.  A non-finite
estimate, ESS or held-out log likelihood raises FloatingPointError, and
a draw count n that is not an integer >= 1 a ValueError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from srfe_lab.discrete import _logsumexp, _require_count
from srfe_lab.gaussians import (DRAW_ROWS, DiagonalGaussian, GaussianMixture,
                                _row_blocks)

__all__ = ["EvalMetrics", "mode_coverage", "ess", "target_entropy",
           "entropy_error", "test_log_lik", "evaluate"]

# What evaluate uses: draws per stochastic metric, and the share of the
# model's peak density over the mixture means that counts a mode as covered.
N_ESS = 10000
N_ENTROPY = 100000
N_TEST = 1000
MODE_REL_THRESHOLD = 0.01


@dataclass(frozen=True)
class EvalMetrics:
    mode_coverage: int
    ess: float
    entropy_error: float
    test_log_lik: float


def _finite(name: str, value: float) -> float:
    if not math.isfinite(value):
        raise FloatingPointError(f"non-finite {name}: {value}")
    return value


def mode_coverage(q: DiagonalGaussian, modes: GaussianMixture) -> int:
    """Number of mixture means where q is above MODE_REL_THRESHOLD of its
    maximum over the means.  Compared in the log domain."""
    lq = np.asarray(q.log_prob(modes.means))
    return int(np.sum(lq > lq.max() + math.log(MODE_REL_THRESHOLD)))


def ess(q: DiagonalGaussian, target, n: int, rng: np.random.Generator) -> float:
    """Effective sample size of p/q importance weights on n draws from q.

    1 / sum of squared normalized weights, all in the log domain; equals n
    exactly when the weights are flat, and is 0.0 when no draw has target
    density (every log p is -inf).
    """
    _require_count("n", n, 1)
    xs = q.sample(n, rng)
    logw = np.asarray(target.log_prob(xs)) - np.asarray(q.log_prob(xs))
    total = _logsumexp(logw)
    if total == -np.inf:
        return 0.0
    logw = logw - total
    return float(np.exp(-_logsumexp(2.0 * logw)))


def _draw_blocks(target, n: int, rng: np.random.Generator):
    """target's n draws as (rows, points) blocks in stream order: its own
    sample_blocks(n, rng), or else its sample(n, rng) in row slices of
    DRAW_ROWS."""
    blocks = getattr(target, "sample_blocks", None)
    if blocks is not None:
        yield from blocks(n, rng)
        return
    xs = target.sample(n, rng)
    for rows in _row_blocks(n, DRAW_ROWS):
        yield rows, xs[rows]


def target_entropy(target, n: int, rng: np.random.Generator) -> float:
    """Monte Carlo entropy of target: -mean log p over n target draws.

    The draws come one block at a time from the target's sample_blocks
    (see srfe_lab.estimators), and each block's log densities go into its
    rows of one (n,) array, so an estimate holds that array, one block and
    its pass, never the draws themselves; the draws are not written.  A
    row's log density does not depend on the other rows, so the mean is
    the one-pass mean exactly.
    """
    _require_count("n", n, 1)
    log_p = np.empty(n)
    for rows, points in _draw_blocks(target, n, rng):
        log_p[rows] = target.log_prob(points)
    return _finite("target entropy estimate", -float(np.mean(log_p)))


def entropy_error(q: DiagonalGaussian, target_entropy: float) -> float:
    """|analytic entropy of q - the target's entropy estimate|."""
    return abs(q.entropy() - target_entropy)


def test_log_lik(q: DiagonalGaussian, target, n: int,
                 rng: np.random.Generator) -> float:
    """Mean log q over n held-out target draws."""
    _require_count("n", n, 1)
    xs = target.sample(n, rng)
    return float(np.mean(np.asarray(q.log_prob(xs))))


def evaluate(q: DiagonalGaussian, target, modes: GaussianMixture,
             seed: int, target_entropy: float) -> EvalMetrics:
    """All four metrics; sub-metrics use seeds seed + 1, + 2, + 3.

    The caller supplies target_entropy, the estimate on the seed + 2
    stream, target_entropy(target, N_ENTROPY, np.random.default_rng(seed +
    2)).  experiments._run_cells supplies NaN, because a share evaluates
    its cells before its estimates, and replaces the NaN entropy_error
    with entropy_error(q, estimate) in the calling process.
    """
    return EvalMetrics(
        mode_coverage=mode_coverage(q, modes),
        ess=_finite("ess", ess(q, target, N_ESS,
                               np.random.default_rng(seed + 1))),
        entropy_error=entropy_error(q, target_entropy),
        test_log_lik=_finite("test_log_lik", test_log_lik(
            q, target, N_TEST, np.random.default_rng(seed + 3))),
    )
