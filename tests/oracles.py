"""Plain-Python reference implementations used to cross-check the library.

Scalar loops over math.* only, no numpy: the two computation routes share
no code, so agreement is evidence rather than tautology.  The samplers at
the bottom are the exception: they draw every row of a model at once, in
whole numpy arrays with a new array per operation, as the library's
samplers did before they streamed their draws in blocks, and a block
sampler must read the same stream.
"""
import math

import numpy as np


def overlap(p, q, tau):
    return sum(pi ** tau * qi ** (1.0 - tau)
               for pi, qi in zip(p, q) if pi > 0 and qi > 0)


def srfe(p, q, tau):
    return -math.log(overlap(p, q, tau)) / (tau * (1.0 - tau))


def cr_assoc(p, q, tau):
    return (1.0 - overlap(p, q, tau)) / (tau * (1.0 - tau))


def cr_standard(p, q, lam):
    total = 0.0
    for pi, qi in zip(p, q):
        if pi == 0:
            continue
        if qi == 0:
            if lam > 0:
                return math.inf
            total += -pi  # (pi/qi)^lam -> 0 for negative lam
        else:
            total += pi * ((pi / qi) ** lam - 1.0)
    return total / (lam * (lam + 1.0))


def kl(p, q):
    total = 0.0
    for pi, qi in zip(p, q):
        if pi == 0:
            continue
        if qi == 0:
            return math.inf
        total += pi * math.log(pi / qi)
    return total


def escort_weights(p, q, tau):
    w = [pi ** tau * qi ** (1.0 - tau) for pi, qi in zip(p, q)]
    s = sum(w)
    return [wi / s for wi in w]


def variational(r, p, q, tau):
    return kl(r, q) / tau + kl(r, p) / (1.0 - tau)


def srfe_mixed_partial_analytic(u, v, tau):
    """d2 G / du dv of G(u, v) = srfe((u, v, w), uniform, tau), w = 1-u-v.

    With S = u^tau + v^tau + w^tau, G = const - log(S) / (tau (1 - tau)),
    so the mixed partial follows from differentiating log S twice.
    """
    w = 1.0 - u - v
    s = u ** tau + v ** tau + w ** tau
    du = tau * (u ** (tau - 1.0) - w ** (tau - 1.0))
    dv = tau * (v ** (tau - 1.0) - w ** (tau - 1.0))
    duv = tau * (tau - 1.0) * w ** (tau - 2.0)
    return -(duv / s - du * dv / (s * s)) / (tau * (1.0 - tau))


def kl_mixed_partial_analytic(u, v):
    """d2 / du dv of KL((u, v, w) || uniform), w = 1-u-v: 1 / w, a function
    of w alone, as for every f-divergence."""
    return 1.0 / (1.0 - u - v)



def diagonal_sample(q, n, rng):
    """DiagonalGaussian's n draws: mu + sigma eps over one (n, d) draw."""
    return q.mu + q.sigma * rng.standard_normal((n, q.dim))


def mixture_sample(mix, n, rng):
    """GaussianMixture's n draws: every component label, then one (n, d)
    draw of normals, scaled and shifted by each row's mean."""
    comps = rng.choice(mix.n_components, size=n, p=mix.weights)
    noise = rng.standard_normal((n, mix.dim))
    return mix.means[comps] + np.sqrt(mix.variance) * noise


def contaminated_sample(con, n, rng, low=-10.0, high=10.0):
    """ContaminatedMixture's n draws: every row's box flag, then a base draw
    and a uniform point on [low, high]^d for every row, the flagged rows
    taking the uniform one."""
    from_box = rng.random(n) < con.outlier_weight
    draws = mixture_sample(con.base, n, rng)
    box = rng.uniform(low, high, size=(n, con.dim))
    return np.where(from_box[:, None], box, draws)
