"""Plain-Python reference implementations used to cross-check the library.

Scalar loops over math.* only, no numpy: the two computation routes share
no code, so agreement is evidence rather than tautology.
"""
import math


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
