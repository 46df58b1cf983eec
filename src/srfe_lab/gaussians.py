"""Diagonal Gaussians, shared-variance mixtures and a box-contaminated variant.

These are the continuous models used by the Monte Carlo estimators and the
training loop: a mean-field Gaussian with parameters (mu, log_sigma), a
mixture of isotropic Gaussians with one shared variance, and the mixture
blended with a uniform outlier box.  All densities are evaluated in the log
domain.

Batches stay (n, d) at the interface: a method that takes points accepts a
point of shape (d,) or a batch of shape (n, d), rejects any other width
with a ValueError, and returns per-point values of shape (n,) or (n, d).
Inside, the kernels work on (K, n) arrays and length-n columns, looping in
Python over the K components and the d coordinates, so that every reduction
runs over the long sample axis n; per-point vectors are built as (d, n)
arrays and returned as their (n, d) transposes.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import reduce

import numpy as np

from srfe_lab.discrete import _logsumexp, _logsumexp_terms

__all__ = [
    "DiagonalGaussian",
    "GaussianMixture",
    "ContaminatedMixture",
    "srfe_equal_covariance",
]

LOG_2PI = float(np.log(2.0 * np.pi))
# ContaminatedMixture's outlier box is [BOX_LOW, BOX_HIGH]^d.
BOX_LOW = -10.0
BOX_HIGH = 10.0


def _as_batch(x, dim: int) -> tuple[np.ndarray, bool]:
    """Promote a single point (dim,) to a batch (1, dim); report if it was
    single.  Any other shape, a wrong width included, is a ValueError."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim in (1, 2) and arr.shape[-1] == dim:
        return (arr[None, :], True) if arr.ndim == 1 else (arr, False)
    raise ValueError(f"expected a point of shape ({dim},) or a batch of shape "
                     f"(n, {dim}), got shape {arr.shape}")


def _frozen_vector(v, name: str) -> np.ndarray:
    arr = np.asarray(v, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"{name} must be a nonempty 1-d vector")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    arr = arr.copy()
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class DiagonalGaussian:
    """Mean-field Gaussian N(mu, diag(exp(log_sigma))^2)."""

    mu: np.ndarray
    log_sigma: np.ndarray

    def __post_init__(self):
        mu = _frozen_vector(self.mu, "mu")
        ls = _frozen_vector(self.log_sigma, "log_sigma")
        if mu.shape != ls.shape:
            raise ValueError("mu and log_sigma must have the same shape")
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "log_sigma", ls)

    @property
    def dim(self) -> int:
        return int(self.mu.size)

    @property
    def sigma(self) -> np.ndarray:
        return np.exp(self.log_sigma)

    def transform(self, eps: np.ndarray) -> np.ndarray:
        """Reparameterization x = mu + sigma * eps, elementwise."""
        eb, single = _as_batch(eps, self.dim)
        out = np.stack([mj + sj * ej for mj, sj, ej
                        in zip(self.mu, self.sigma, eb.T)]).T
        return out[0] if single else out

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return self.transform(rng.standard_normal((n, self.dim)))

    def _z_columns(self, xb: np.ndarray) -> list[np.ndarray]:
        """(x_j - mu_j) / sigma_j, one length-n column per coordinate."""
        return [(xj - mj) / sj for xj, mj, sj in zip(xb.T, self.mu, self.sigma)]

    def log_prob(self, x):
        xb, single = _as_batch(x, self.dim)
        sq = reduce(np.add, [z * z for z in self._z_columns(xb)])
        out = -0.5 * self.dim * LOG_2PI - self.log_sigma.sum() - 0.5 * sq
        return float(out[0]) if single else out

    def entropy(self) -> float:
        """0.5 d (1 + log 2 pi) + sum log_sigma."""
        return 0.5 * self.dim * (1.0 + LOG_2PI) + float(self.log_sigma.sum())

    def score_x(self, x):
        """Gradient of log density in x: -(x - mu) / sigma^2."""
        xb, single = _as_batch(x, self.dim)
        out = np.stack([-(xj - mj) / vj for xj, mj, vj
                        in zip(xb.T, self.mu, self.sigma ** 2)]).T
        return out[0] if single else out

    def log_prob_and_score(self, x):
        """(log_prob(x), score_x(x))."""
        return self.log_prob(x), self.score_x(x)

    def param_score(self, x) -> tuple[np.ndarray, np.ndarray]:
        """Per-sample gradients of log q in (mu, log_sigma).

        d/dmu_k     = (x_k - mu_k) / sigma_k^2
        d/dlogsig_k = ((x_k - mu_k) / sigma_k)^2 - 1
        """
        xb, single = _as_batch(x, self.dim)
        z = self._z_columns(xb)
        d_mu = np.stack([zj / sj for zj, sj in zip(z, self.sigma)]).T
        d_ls = np.stack([zj * zj - 1.0 for zj in z]).T
        if single:
            return d_mu[0], d_ls[0]
        return d_mu, d_ls


@dataclass(frozen=True)
class GaussianMixture:
    """Mixture of isotropic Gaussians sharing one variance.

    means has shape (K, d); weights is a length-K probability vector.
    """

    means: np.ndarray
    variance: float
    weights: np.ndarray

    def __post_init__(self):
        means = np.asarray(self.means, dtype=np.float64)
        if means.ndim != 2:
            raise ValueError("means must have shape (K, d)")
        if not np.all(np.isfinite(means)):
            raise ValueError("means must be finite")
        w = _frozen_vector(self.weights, "weights")
        if w.size != means.shape[0]:
            raise ValueError("one weight per component required")
        if np.any(w < 0) or abs(w.sum() - 1.0) > 1e-9:
            raise ValueError("weights must be a probability vector")
        if not 0.0 < self.variance < np.inf:
            raise ValueError("variance must be positive and finite")
        means = means.copy()
        means.flags.writeable = False
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "variance", float(self.variance))

    @property
    def dim(self) -> int:
        return int(self.means.shape[1])

    @property
    def n_components(self) -> int:
        return int(self.means.shape[0])

    def _component_log_probs(self, xb: np.ndarray) -> np.ndarray:
        # (K, n): row k is the log of weight_k * N(x; m_k, variance I) on the
        # (n, d) batch xb, its squared distance summed one coordinate at a time
        norm = -0.5 * self.dim * (LOG_2PI + np.log(self.variance))
        rows = []
        for mean, log_w in zip(self.means, np.log(self.weights)):
            sq = reduce(np.add, [np.square(xj - mj)
                                 for xj, mj in zip(xb.T, mean)])
            rows.append(log_w + norm - 0.5 * sq / self.variance)
        return np.stack(rows)

    def log_prob(self, x):
        xb, single = _as_batch(x, self.dim)
        out = _logsumexp(self._component_log_probs(xb), axis=0)
        return float(out[0]) if single else out

    def log_prob_and_score(self, x):
        """Log density and its x-gradient from one pass over the components.

        The gradient is the responsibility-weighted pull towards the means,
        (m_k - x) / variance summed over k, built one coordinate at a time
        from the shifted exponentials e_k of the log-sum-exp, whose sum s
        normalizes them: sum_k e_k (m_k - x) / (s variance).
        """
        xb, single = _as_batch(x, self.dim)
        lp, e, s = _logsumexp_terms(self._component_log_probs(xb), axis=0)
        denom = s * self.variance
        cols = []
        for xj, mj in zip(xb.T, self.means.T):  # coordinate j, K mean entries
            cols.append(reduce(np.add, [e_k * (m_kj - xj)
                                        for e_k, m_kj in zip(e, mj)]) / denom)
        score = np.stack(cols).T
        return (float(lp[0]), score[0]) if single else (lp, score)

    def score_x(self, x):
        """Gradient of log density in x."""
        return self.log_prob_and_score(x)[1]

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        comps = rng.choice(self.n_components, size=n, p=self.weights)
        noise = rng.standard_normal((n, self.dim))
        return self.means[comps] + np.sqrt(self.variance) * noise

    def mean(self) -> np.ndarray:
        return self.weights @ self.means


@dataclass(frozen=True)
class ContaminatedMixture:
    """(1 - w) * base + w * Uniform(box), the box being [BOX_LOW, BOX_HIGH]^d.

    outlier_weight = 0 reduces exactly to the base mixture.
    """

    base: GaussianMixture
    outlier_weight: float

    def __post_init__(self):
        if not (0.0 <= self.outlier_weight < 1.0):
            raise ValueError("outlier_weight must lie in [0, 1)")

    @property
    def dim(self) -> int:
        return self.base.dim

    def _log_box_density(self) -> float:
        side = BOX_HIGH - BOX_LOW
        return float(np.log(self.outlier_weight) - self.dim * np.log(side))

    def _blend(self, xb: np.ndarray, base_lp: np.ndarray):
        """(log (1-w) + base log density, log density of the blend, which
        rows of xb lie in the box); the mask is None at w = 0."""
        base_lp = np.log1p(-self.outlier_weight) + base_lp
        if self.outlier_weight == 0.0:
            return base_lp, base_lp, None
        in_box = reduce(np.logical_and, [(xj >= BOX_LOW) & (xj <= BOX_HIGH)
                                         for xj in xb.T])
        # in the box the uniform part is one constant c, and
        # log(e^a + e^c) = max(a, c) + log1p(e^-|a - c|); outside, only a
        c = self._log_box_density()
        both = np.maximum(base_lp, c) + np.log1p(np.exp(-np.abs(base_lp - c)))
        return base_lp, np.where(in_box, both, base_lp), in_box

    def log_prob(self, x):
        xb, single = _as_batch(x, self.dim)
        out = self._blend(xb, self.base.log_prob(xb))[1]
        return float(out[0]) if single else out

    def log_prob_and_score(self, x):
        """Log density and its x-gradient from one pass over the base mixture.

        The uniform component is flat, so inside the box the base gradient is
        shrunk by the base component's posterior share; outside it passes
        through unchanged.  Points exactly on the box boundary (where the
        density jumps) get the base gradient and a warning.
        """
        xb, single = _as_batch(x, self.dim)
        base_lp, score = self.base.log_prob_and_score(xb)
        base_lp, out, in_box = self._blend(xb, base_lp)
        if self.outlier_weight > 0.0:
            on_edge = reduce(np.logical_or, [(xj == BOX_LOW) | (xj == BOX_HIGH)
                                             for xj in xb.T])
            if on_edge.any():
                warnings.warn("score requested exactly on the outlier box "
                              "boundary; returning the base-mixture gradient "
                              "there", RuntimeWarning, stacklevel=2)
            share = np.exp(base_lp - out)  # posterior weight of the base part
            share = np.where(in_box & ~on_edge, share, 1.0)
            score = share[:, None] * score
        return (float(out[0]), score[0]) if single else (out, score)

    def score_x(self, x):
        """Gradient of log density in x; see log_prob_and_score."""
        return self.log_prob_and_score(x)[1]

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        # Fixed draw order keeps results reproducible for a given generator.
        from_box = rng.random(n) < self.outlier_weight
        base_draws = self.base.sample(n, rng)
        box_draws = rng.uniform(BOX_LOW, BOX_HIGH, size=(n, self.dim))
        return np.where(from_box[:, None], box_draws, base_draws)


def srfe_equal_covariance(mu1, mu2, variance: float) -> float:
    """Free-energy divergence between N(mu1, v I) and N(mu2, v I).

    The Gaussian overlap integral gives F(tau) = exp(-tau(1-tau)|dmu|^2/(2v)),
    so the value is |mu1 - mu2|^2 / (2 v) for every tau.
    """
    if not variance > 0:
        raise ValueError("variance must be positive")
    d = np.asarray(mu1, dtype=np.float64) - np.asarray(mu2, dtype=np.float64)
    return float(d @ d) / (2.0 * variance)
