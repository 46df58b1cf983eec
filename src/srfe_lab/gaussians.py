"""Diagonal Gaussians, shared-variance mixtures and a box-contaminated variant.

These are the continuous models used by the Monte Carlo estimators and the
training loop: a mean-field Gaussian with parameters (mu, log_sigma), a
mixture of isotropic Gaussians with one shared variance, and the mixture
blended with a uniform outlier box.  All densities are evaluated in the log
domain.

Batches stay (n, d) at the interface: a method that takes points accepts a
point of shape (d,) or a batch of shape (n, d), rejects any other width
with a ValueError, and returns per-point values of shape (n,) or (n, d).
Inside, the kernels work on (K, n) arrays and length-n rows, looping in
Python over the d coordinates (and, where a sum over components must keep
its order, the K components), so that every reduction runs over the long
sample axis n.

Buffers: a call owns what it allocates, allocates each result once with
np.empty (or as the output of its first ufunc), fills it in place with
out= and augmented assignment, and never writes an argument; a read-only
batch is accepted.  Per-point vectors are (d, n) C-ordered arrays, so an
(n, d) result is the .T view of one and its .T rows are contiguous.

The mean-field Gaussian's row kernels (_transform_rows, _log_prob_rows,
_param_score_rows) are module functions on parameter columns that
broadcast against their rows: (d, 1) columns of one model on (d, n) rows,
or (d, J, 1) columns of J models on the (d, J, n) rows of a stack of fits
(see srfe_lab.estimators).  DiagonalGaussian's transform and log_prob
are the one-model case of the first two; _param_score_rows serves the
forward-KL rows of srfe_lab.estimators alone.

The classes that hold arrays compare and hash by identity (eq=False): a
generated __eq__ would compare their arrays elementwise and fail.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

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
# Rows a large Monte Carlo pass (verify's tail check, a target-entropy
# estimate, the mixture samplers) holds at a time: its working set stays a
# few hundred kB per block, whatever its draw count.
BLOCK_ROWS = 8192


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


def _sum_rows(rows: np.ndarray, out: np.ndarray) -> np.ndarray:
    """rows[0] + rows[1] + ..., added left to right into out.  (An axis-0
    sum pairs its terms differently when a row has length 1.)"""
    if len(rows) == 1:
        np.copyto(out, rows[0])
    else:
        np.add(rows[0], rows[1], out=out)
        for row in rows[2:]:
            out += row
    return out


def _transform_rows(eps_rows, mu, sigma, out):
    """x = mu + sigma eps, written into out, from rows of eps that
    broadcast against it."""
    np.multiply(eps_rows, sigma, out=out)
    out += mu
    return out


def _log_norm(log_sigma):
    """-d log(2 pi) / 2 - sum_j log sigma_j over the last axis of log_sigma:
    a scalar for one model, one value per row for a (J, d) stack."""
    return -0.5 * log_sigma.shape[-1] * LOG_2PI - log_sigma.sum(axis=-1)


def _log_prob_rows(diff, sigma, log_norm, out):
    """Mean-field Gaussian log densities log_norm - |z|^2 / 2 into out, from
    the rows x_j - mu_j of diff, which it overwrites with z_j = (x_j - mu_j)
    / sigma_j and then z_j^2."""
    diff /= sigma
    np.square(diff, out=diff)
    sq = _sum_rows(diff, out=out)
    sq *= 0.5
    return np.subtract(log_norm, sq, out=sq)


def _param_score_rows(diff, sigma):
    """The (mu, log_sigma) gradients of log q, (x_j - mu_j) / sigma_j^2 and
    z_j^2 - 1, as two new arrays shaped like diff, which is not written."""
    d_ls = np.divide(diff, sigma, out=np.empty(diff.shape))
    d_mu = np.divide(d_ls, sigma, out=np.empty(diff.shape))
    np.square(d_ls, out=d_ls)
    d_ls -= 1.0
    return d_mu, d_ls


@dataclass(frozen=True, eq=False)
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
        out = _transform_rows(eb.T, self.mu[:, None], self.sigma[:, None],
                              np.empty((self.dim, eb.shape[0])))
        return out.T[0] if single else out.T

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return self.transform(rng.standard_normal((n, self.dim)))

    def _diff_rows(self, xb: np.ndarray) -> np.ndarray:
        """x_j - mu_j, one length-n row per coordinate, in a new (d, n) array."""
        diff = np.empty((self.dim, xb.shape[0]))
        return np.subtract(xb.T, self.mu[:, None], out=diff)

    def _log_prob_rows(self, diff: np.ndarray) -> np.ndarray:
        """The log density from the rows x_j - mu_j, which it overwrites."""
        return _log_prob_rows(diff, self.sigma[:, None],
                              _log_norm(self.log_sigma), out=diff[0])

    def log_prob(self, x):
        xb, single = _as_batch(x, self.dim)
        out = self._log_prob_rows(self._diff_rows(xb))
        return float(out[0]) if single else out

    def entropy(self) -> float:
        """0.5 d (1 + log 2 pi) + sum log_sigma."""
        return 0.5 * self.dim * (1.0 + LOG_2PI) + float(self.log_sigma.sum())

    def log_prob_and_score(self, x):
        """(log_prob(x), its x-gradient -(x - mu) / sigma^2)."""
        xb, single = _as_batch(x, self.dim)
        diff = self._diff_rows(xb)
        score = np.negative(diff)
        score /= (self.sigma ** 2)[:, None]
        lp = self._log_prob_rows(diff)
        return (float(lp[0]), score.T[0]) if single else (lp, score.T)


@dataclass(frozen=True, eq=False)
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
        # (n, d) batch xb, its squared distance summed one coordinate at a
        # time over all K rows at once
        out = np.empty((self.n_components, xb.shape[0]))
        sq = np.empty_like(out) if self.dim > 1 else None
        for j, (xj, mj) in enumerate(zip(xb.T, self.means.T)):
            dst = sq if j else out
            np.subtract(xj, mj[:, None], out=dst)
            np.square(dst, out=dst)
            if j:
                out += sq
        out *= 0.5
        out /= self.variance
        norm = -0.5 * self.dim * (LOG_2PI + np.log(self.variance))
        return np.subtract((np.log(self.weights) + norm)[:, None], out,
                           out=out)

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
        lp, e, denom = _logsumexp_terms(self._component_log_probs(xb), axis=0)
        denom *= self.variance
        score = np.empty((self.dim, xb.shape[0]))
        pull = np.empty_like(e)
        for row, xj, mj in zip(score, xb.T, self.means.T):
            np.subtract(mj[:, None], xj, out=pull)  # row k: m_kj - x_j
            pull *= e
            _sum_rows(pull, out=row)
            row /= denom
        return (float(lp[0]), score.T[0]) if single else (lp, score.T)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        comps = rng.choice(self.n_components, size=n, p=self.weights)
        # the draws are built in the noise array, the means added BLOCK_ROWS
        # rows at a time: IEEE multiply and add commute, so this is
        # means[comps] + sqrt(variance) * noise exactly
        noise = rng.standard_normal((n, self.dim))
        noise *= np.sqrt(self.variance)
        for start in range(0, n, BLOCK_ROWS):
            block = slice(start, start + BLOCK_ROWS)
            noise[block] += self.means[comps[block]]
        return noise


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
        """(log density of the blend, which rows of xb lie outside the box);
        the mask is None at w = 0.  base_lp is the caller's own array and is
        shifted in place to log (1-w) + base log density."""
        base_lp += np.log1p(-self.outlier_weight)
        if self.outlier_weight == 0.0:
            return base_lp, None
        inside = xb.T >= BOX_LOW
        inside &= xb.T <= BOX_HIGH
        outside = ~inside.all(axis=0)
        # in the box the uniform part is one constant c, and
        # log(e^a + e^c) = max(a, c) + log1p(e^-|a - c|); outside, only a
        c = self._log_box_density()
        out = np.subtract(base_lp, c)
        np.abs(out, out=out)
        np.negative(out, out=out)
        np.exp(out, out=out)
        np.log1p(out, out=out)
        out += np.maximum(base_lp, c)
        np.copyto(out, base_lp, where=outside)
        return out, outside

    def log_prob(self, x):
        xb, single = _as_batch(x, self.dim)
        out = self._blend(xb, self.base.log_prob(xb))[0]
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
        out, keep_base = self._blend(xb, base_lp)
        if self.outlier_weight > 0.0:
            on_edge = xb.T == BOX_LOW
            on_edge |= xb.T == BOX_HIGH
            on_edge = on_edge.any(axis=0)
            if on_edge.any():
                warnings.warn("score requested exactly on the outlier box "
                              "boundary; returning the base-mixture gradient "
                              "there", RuntimeWarning, stacklevel=2)
            keep_base |= on_edge
            # posterior weight of the base part, 1 where its gradient is kept
            share = np.subtract(base_lp, out)
            np.exp(share, out=share)
            np.copyto(share, 1.0, where=keep_base)
            np.multiply(score.T, share, out=score.T)
        return (float(out[0]), score[0]) if single else (out, score)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        # Fixed draw order keeps results reproducible for a given generator.
        # The box uniforms are drawn BLOCK_ROWS rows at a time, which reads
        # the stream one (n, d) draw reads.
        from_box = rng.random(n) < self.outlier_weight
        base_draws = self.base.sample(n, rng)
        for start in range(0, n, BLOCK_ROWS):
            block = slice(start, start + BLOCK_ROWS)
            box_draws = rng.uniform(BOX_LOW, BOX_HIGH,
                                    size=base_draws[block].shape)
            np.copyto(base_draws[block], box_draws, where=from_box[block, None])
        return base_draws


def srfe_equal_covariance(mu1, mu2, variance: float) -> float:
    """Free-energy divergence between N(mu1, v I) and N(mu2, v I).

    The Gaussian overlap integral gives F(tau) = exp(-tau(1-tau)|dmu|^2/(2v)),
    so the value is |mu1 - mu2|^2 / (2 v) for every tau.
    """
    if not variance > 0:
        raise ValueError("variance must be positive")
    d = np.asarray(mu1, dtype=np.float64) - np.asarray(mu2, dtype=np.float64)
    return float(d @ d) / (2.0 * variance)
