"""Fit diagnostics for a trained mean-field Gaussian.

Four metrics: how many target modes carry model density, importance-sampling
effective sample size with the model as proposal, the gap between the model's
analytic entropy and a Monte Carlo estimate of the target's, and held-out
mean log likelihood.  Stochastic metrics draw from fixed offset seeds so a
full evaluation is reproducible from one base seed.  The target-entropy
estimate does not depend on the model, so a caller draws it once per target
and seed (target_entropy) and supplies it to evaluate.  A non-finite
estimate, ESS or held-out log likelihood raises FloatingPointError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from srfe_lab.discrete import _logsumexp
from srfe_lab.gaussians import BLOCK_ROWS, DiagonalGaussian, GaussianMixture

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
    xs = q.sample(n, rng)
    logw = np.asarray(target.log_prob(xs)) - np.asarray(q.log_prob(xs))
    total = _logsumexp(logw)
    if total == -np.inf:
        return 0.0
    logw = logw - total
    return float(np.exp(-_logsumexp(2.0 * logw)))


def target_entropy(target, n: int, rng: np.random.Generator) -> float:
    """Monte Carlo entropy of target: -mean log p over n target draws.

    The log densities of each block of BLOCK_ROWS // 4 draws are written
    over the block's first coordinate (a read-only sample is copied first),
    so a pass's (components, rows) temporaries stay small beside the draws.
    A row's log density does not depend on the other rows, so the mean is
    the one-pass mean exactly.
    """
    xs = np.require(target.sample(n, rng), np.float64, "W")
    block_rows = BLOCK_ROWS // 4
    for start in range(0, n, block_rows):
        block = xs[start:start + block_rows]
        block[:, 0] = target.log_prob(block)
    return _finite("target entropy estimate", -float(np.mean(xs[:, 0])))


def entropy_error(q: DiagonalGaussian, target_entropy: float) -> float:
    """|analytic entropy of q - the target's entropy estimate|."""
    return abs(q.entropy() - target_entropy)


def test_log_lik(q: DiagonalGaussian, target, n: int,
                 rng: np.random.Generator) -> float:
    """Mean log q over n held-out target draws."""
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
