"""Fit diagnostics for a trained mean-field Gaussian.

Four metrics: how many target modes carry model density, importance-sampling
effective sample size with the model as proposal, the gap between the model's
analytic entropy and a Monte Carlo estimate of the target's, and held-out
mean log likelihood.  Stochastic metrics draw from fixed offset seeds so a
full evaluation is reproducible from one base seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from srfe_lab.discrete import _logsumexp
from srfe_lab.gaussians import DiagonalGaussian, GaussianMixture

__all__ = ["EvalConfig", "EvalMetrics", "mode_coverage", "ess",
           "entropy_error", "test_log_lik", "evaluate"]


@dataclass(frozen=True)
class EvalConfig:
    seed: int = 0
    n_ess: int = 10000
    n_entropy: int = 100000
    n_test: int = 1000
    mode_rel_threshold: float = 0.01


@dataclass(frozen=True)
class EvalMetrics:
    mode_coverage: int
    ess: float
    entropy_error: float
    test_log_lik: float


def mode_coverage(q: DiagonalGaussian, modes: GaussianMixture,
                  rel_threshold: float = 0.01) -> int:
    """Number of mixture means where q is above rel_threshold of its maximum
    over the means.  Compared in the log domain."""
    if not 0.0 < rel_threshold <= 1.0:
        raise ValueError("rel_threshold must lie in (0, 1]")
    lq = np.asarray(q.log_prob(modes.means))
    return int(np.sum(lq > lq.max() + math.log(rel_threshold)))


def ess(q: DiagonalGaussian, target, n: int, rng: np.random.Generator) -> float:
    """Effective sample size of p/q importance weights on n draws from q.

    1 / sum of squared normalized weights, all in the log domain; equals n
    exactly when the weights are flat.
    """
    xs = q.sample(n, rng)
    logw = np.asarray(target.log_prob(xs)) - np.asarray(q.log_prob(xs))
    logw = logw - _logsumexp(logw)
    return float(np.exp(-_logsumexp(2.0 * logw)))


def entropy_error(q: DiagonalGaussian, target, n: int,
                  rng: np.random.Generator) -> float:
    """|analytic entropy of q - Monte Carlo entropy of target| on n draws."""
    xs = target.sample(n, rng)
    target_entropy = -float(np.mean(np.asarray(target.log_prob(xs))))
    return abs(q.entropy() - target_entropy)


def test_log_lik(q: DiagonalGaussian, target, n: int,
                 rng: np.random.Generator) -> float:
    """Mean log q over n held-out target draws."""
    xs = target.sample(n, rng)
    return float(np.mean(np.asarray(q.log_prob(xs))))


def evaluate(q: DiagonalGaussian, target, modes: GaussianMixture,
             cfg: EvalConfig) -> EvalMetrics:
    """All four metrics; sub-metrics use seeds cfg.seed + 1, + 2, + 3."""
    return EvalMetrics(
        mode_coverage=mode_coverage(q, modes, cfg.mode_rel_threshold),
        ess=ess(q, target, cfg.n_ess, np.random.default_rng(cfg.seed + 1)),
        entropy_error=entropy_error(q, target, cfg.n_entropy,
                                    np.random.default_rng(cfg.seed + 2)),
        test_log_lik=test_log_lik(q, target, cfg.n_test,
                                  np.random.default_rng(cfg.seed + 3)),
    )
