"""Monte-Carlo losses and gradients: exact zero at the target, clamp
behaviour, common-random-numbers derivative checks, the tau -> 0 endpoint
against reverse KL, the per-coordinate gradient kernels against the (n, 2d)
concatenated form, every row of a stack of fits against the same fit
alone, the Gaussian closed form, and second-moment bounds on the softmax
family."""
import dataclasses
import math
import warnings
from functools import reduce

import numpy as np
import pytest

from srfe_lab import estimators
from srfe_lab.discrete import (AbsoluteContinuityError, DiscreteDist,
                               DisjointSupportError)
from srfe_lab.estimators import (
    _forward_rows,
    _pathwise_rows,
    _q_rows,
    _q_side_rows,
    _q_side_step,
    _target_rows,
    estimator_second_moment,
    exact_second_moment,
    forward_kl_grad,
    forward_kl_loss,
    reverse_kl_grad,
    reverse_kl_loss,
    softmax,
    softmax_scores,
    srfe_mc_step,
)
from srfe_lab.gaussians import (
    ContaminatedMixture,
    DiagonalGaussian,
    GaussianMixture,
    _param_score_rows,
)

MEANS = np.array([[-3.0, 0.0], [3.0, 0.0], [0.0, 4.0]])
BENCH = GaussianMixture(means=MEANS, variance=0.5,
                        weights=np.array([0.3, 0.3, 0.4]))


def half_var_gaussian(mu):
    ls = math.log(math.sqrt(0.5))
    return DiagonalGaussian(mu=np.asarray(mu, dtype=float),
                            log_sigma=np.full(len(mu), ls))


class TestLoss:
    def test_zero_at_target(self):
        q = DiagonalGaussian(mu=np.array([0.4, -0.2]),
                             log_sigma=np.array([0.1, 0.3]))
        eps = np.random.default_rng(0).standard_normal((64, 2))
        rep = srfe_mc_step(q, q, 0.3, eps)[0]
        assert rep.loss == 0.0
        assert rep.f_hat == 1.0
        assert not rep.clamped

    def test_clamp_floor(self):
        # a model nowhere near the target drives the overlap under the floor
        q = DiagonalGaussian(mu=np.array([60.0, 60.0]),
                             log_sigma=np.zeros(2))
        eps = np.random.default_rng(1).standard_normal((128, 2))
        rep, grad = srfe_mc_step(q, BENCH, 0.5, eps)
        assert rep.clamped
        assert rep.f_hat == 1e-10
        assert rep.loss == pytest.approx(-math.log(1e-10) / 0.25, abs=1e-12)
        assert np.all(grad.d_mu == 0.0)
        assert np.all(grad.d_log_sigma == 0.0)
        assert grad.second_moment == 0.0

    def test_no_overlap_clamps_low(self):
        # every log ratio is -inf, so f_hat = 0: the loss must clamp low
        # with a zero gradient, not come out NaN
        class NoSupport:
            def log_prob_and_score(self, x):
                x = np.asarray(x)
                return np.full(x.shape[0], -np.inf), np.zeros_like(x)

        q = DiagonalGaussian(mu=np.zeros(2), log_sigma=np.zeros(2))
        eps = np.random.default_rng(5).standard_normal((32, 2))
        rep, grad = srfe_mc_step(q, NoSupport(), 0.5, eps)
        assert rep.clamped
        assert rep.f_hat == 1e-10
        assert rep.loss == pytest.approx(-math.log(1e-10) / 0.25, abs=1e-12)
        assert rep.max_log_ratio == -math.inf
        assert np.all(grad.d_mu == 0.0)
        assert np.all(grad.d_log_sigma == 0.0)
        assert grad.second_moment == 0.0

    @pytest.mark.parametrize("outlier_weight", [None, 0.2])
    def test_one_component_pass_per_step(self, outlier_weight):
        passes = []

        class CountingMixture(GaussianMixture):
            def _component_log_probs(self, xb):
                passes.append(xb.shape[0])
                return super()._component_log_probs(xb)

        target = CountingMixture(means=MEANS, variance=0.5,
                                 weights=np.array([0.3, 0.3, 0.4]))
        if outlier_weight is not None:
            target = ContaminatedMixture(base=target,
                                         outlier_weight=outlier_weight)
        q = DiagonalGaussian(mu=np.array([0.5, 1.0]),
                             log_sigma=np.array([0.3, 0.1]))
        eps = np.random.default_rng(6).standard_normal((100, 2))
        rep, _ = srfe_mc_step(q, target, 0.5, eps)
        assert not rep.clamped
        assert passes == [100]

    def test_gradient_noise_at_target_is_statistical(self):
        # at q = target the expected gradient vanishes; the sample gradient
        # is noise of size sqrt(second_moment / n)
        q = DiagonalGaussian(mu=np.zeros(2), log_sigma=np.zeros(2))
        n = 4096
        eps = np.random.default_rng(2).standard_normal((n, 2))
        g = srfe_mc_step(q, q, 0.5, eps)[1]
        norm = math.sqrt(float(g.d_mu @ g.d_mu + g.d_log_sigma @ g.d_log_sigma))
        assert norm <= 4.0 * math.sqrt(g.second_moment / n)

    def test_step_agrees_with_separate_calls(self):
        q = DiagonalGaussian(mu=np.array([0.5, 1.0]),
                             log_sigma=np.array([-0.2, 0.1]))
        eps = np.random.default_rng(3).standard_normal((200, 2))
        rep, grad = srfe_mc_step(q, BENCH, 0.7, eps)
        rep2 = srfe_mc_step(q, BENCH, 0.7, eps)[0]
        grad2 = srfe_mc_step(q, BENCH, 0.7, eps)[1]
        assert rep == rep2
        np.testing.assert_array_equal(grad.d_mu, grad2.d_mu)
        np.testing.assert_array_equal(grad.d_log_sigma, grad2.d_log_sigma)
        assert grad.second_moment == grad2.second_moment

    def test_eps_shape_checked(self):
        q = DiagonalGaussian(mu=np.zeros(2), log_sigma=np.zeros(2))
        with pytest.raises(ValueError):
            srfe_mc_step(q, BENCH, 0.5, np.zeros((10, 3)))


class TestPathwiseGradients:
    def test_srfe_matches_crn_finite_differences(self):
        rng = np.random.default_rng(17)
        worst = 0.0
        for _ in range(50):
            mu = rng.uniform(-2, 2, size=2)
            lsg = rng.uniform(-0.5, 0.5, size=2)
            tau = float(rng.uniform(0.1, 0.9))
            eps = rng.standard_normal((256, 2))
            g = srfe_mc_step(DiagonalGaussian(mu=mu, log_sigma=lsg),
                             BENCH, tau, eps)[1]
            vec = np.concatenate([g.d_mu, g.d_log_sigma])
            fd = _fd_gradient(
                lambda m, s: srfe_mc_step(DiagonalGaussian(mu=m, log_sigma=s),
                                          BENCH, tau, eps)[0].loss,
                mu, lsg)
            worst = max(worst, np.linalg.norm(fd - vec)
                        / max(np.linalg.norm(vec), 1e-12))
        assert worst <= 1e-4

    def test_reverse_kl_matches_crn_finite_differences(self):
        rng = np.random.default_rng(23)
        mu = np.array([0.5, -1.0])
        lsg = np.array([0.2, -0.3])
        eps = rng.standard_normal((512, 2))
        g = reverse_kl_grad(DiagonalGaussian(mu=mu, log_sigma=lsg), BENCH, eps)
        fd = _fd_gradient(
            lambda m, s: reverse_kl_loss(
                DiagonalGaussian(mu=m, log_sigma=s), BENCH, eps),
            mu, lsg)
        np.testing.assert_allclose(
            np.concatenate([g.d_mu, g.d_log_sigma]), fd, atol=1e-5)

    def test_forward_kl_matches_finite_differences(self):
        xs = BENCH.sample(512, np.random.default_rng(29))
        mu = np.array([0.0, 1.0])
        lsg = np.array([0.4, 0.1])
        g = forward_kl_grad(DiagonalGaussian(mu=mu, log_sigma=lsg), xs)
        fd = _fd_gradient(
            lambda m, s: forward_kl_loss(
                DiagonalGaussian(mu=m, log_sigma=s), BENCH, xs),
            mu, lsg)
        np.testing.assert_allclose(
            np.concatenate([g.d_mu, g.d_log_sigma]), fd, atol=1e-5)


def concatenated_pathwise(q, score, eps, w, scale):
    """_pathwise_rows on one row as one (n, 2d) array reduced over both
    axes."""
    b = np.concatenate([score, score * (q.sigma * eps) + 1.0], axis=1)
    d = scale * (w[:, None] * b).sum(axis=0)
    g = scale * (w.size * w)[:, None] * b
    return d, float((g * g).sum(axis=1).mean())


def concatenated_forward_kl(q, xs):
    """forward_kl_grad as one (n, 2d) array of model scores."""
    z = (xs - q.mu) / q.sigma
    g = -np.concatenate([z / q.sigma, z * z - 1.0], axis=1)
    return g.mean(axis=0), float((g * g).sum(axis=1).mean())


@pytest.mark.parametrize("d", [1, 2, 3, 5])
def test_gradient_kernels_match_concatenated_form(d):
    rng = np.random.default_rng(40 + d)
    target = GaussianMixture(means=rng.normal(scale=3.0, size=(3, d)),
                             variance=0.5, weights=np.array([0.3, 0.3, 0.4]))
    q = DiagonalGaussian(mu=rng.normal(size=d) + 1.0,
                         log_sigma=rng.normal(scale=0.3, size=d))
    eps = rng.standard_normal((2000, d))
    score = target.log_prob_and_score(q.transform(eps))[1]
    rows = np.ascontiguousarray(score.T)[:, None, :]  # (d, 1, n)
    w = rng.random(eps.shape[0])
    for weights, scale in ((w / w.sum(), -1.0 / 0.3),
                           (np.full(eps.shape[0], 1.0 / eps.shape[0]), -1.0)):
        d_mu, d_ls, got_second = _pathwise_rows(
            rows, eps, q.sigma[:, None, None], weights[None],
            np.array([scale]), True)
        want, second = concatenated_pathwise(q, score, eps, weights, scale)
        np.testing.assert_allclose(np.concatenate([d_mu[:, 0], d_ls[:, 0]]),
                                   want, rtol=1e-12, atol=0.0)
        assert got_second[0] == pytest.approx(second, rel=1e-12, abs=0.0)
    xs = target.sample(2000, rng)
    got = forward_kl_grad(q, xs)
    want, second = concatenated_forward_kl(q, xs)
    np.testing.assert_allclose(np.concatenate([got.d_mu, got.d_log_sigma]),
                               want, rtol=1e-12, atol=0.0)
    assert got.second_moment == pytest.approx(second, rel=1e-12, abs=0.0)


def _fd_gradient(loss_of, mu, lsg, h=1e-5):
    out = []
    for field in (0, 1):
        base = (mu, lsg)
        for k in range(len(base[field])):
            up = [mu.copy(), lsg.copy()]
            dn = [mu.copy(), lsg.copy()]
            up[field][k] += h
            dn[field][k] -= h
            out.append((loss_of(*up) - loss_of(*dn)) / (2 * h))
    return np.array(out)


@pytest.mark.parametrize("seed", [0, 1])
def test_srfe_meets_reverse_kl_as_tau_goes_to_0(seed):
    """The paper's tau -> 0 endpoint on one fixed batch of the fitting
    estimator.  With m and v the batch mean and variance of r = log p -
    log q, log F = tau m + tau^2 v / 2 + O(tau^3), so the loss L(tau) tends
    to L(0) = -m, the reverse-KL loss, with slope -m - v/2, and the gradient
    to the reverse-KL gradient.  Below tau 1e-5 the slope, and below 1e-8
    the loss, lose their digits to log(total / n) in _q_side_rows; those
    ranges wait for its log1p form."""
    q = DiagonalGaussian(mu=np.array([0.5, 1.0]),
                         log_sigma=np.array([0.3, 0.2]))
    eps = np.random.default_rng(seed).standard_normal((5000, 2))
    loss_0 = reverse_kl_loss(q, BENCH, eps)
    grad_0 = reverse_kl_grad(q, BENCH, eps)
    x = q.transform(eps)
    r = BENCH.log_prob(x) - q.log_prob(x)
    slope_0 = -r.mean() - r.var() / 2.0
    for k in range(2, 10):
        tau = 10.0 ** -k
        rep, grad = srfe_mc_step(q, BENCH, tau, eps)
        assert not rep.clamped
        if k <= 8:
            assert abs(rep.loss - loss_0) <= tau
        np.testing.assert_allclose(grad.d_mu, grad_0.d_mu, rtol=0.0,
                                   atol=3.0 * tau)
        np.testing.assert_allclose(grad.d_log_sigma, grad_0.d_log_sigma,
                                   rtol=0.0, atol=3.0 * tau)
        if k <= 5:
            assert abs((rep.loss - loss_0) / tau - slope_0) <= 2.0 * tau


class TestGaussianClosedForm:
    def test_unit_shift_half_variance(self):
        # the equal-covariance value is 1.0 at every tau; the estimator
        # should land within 5% at this sample size
        q = half_var_gaussian([0.0, 0.0])
        target = half_var_gaussian([1.0, 0.0])
        eps = np.random.default_rng(11).standard_normal((100_000, 2))
        for tau in (0.2, 0.5, 0.8):
            rep = srfe_mc_step(q, target, tau, eps)[0]
            assert abs(rep.loss - 1.0) <= 0.05


class TestSoftmax:
    def test_shift_invariance(self):
        z = np.array([1.0, -2.0, 0.5])
        np.testing.assert_allclose(softmax(z), softmax(z + 100.0), atol=1e-15)
        assert softmax(z).sum() == pytest.approx(1.0, abs=1e-15)

    def test_batch_normalizes_each_row(self):
        z = np.random.default_rng(4).standard_normal((5, 4)) * 3.0
        batch = softmax(z)
        assert batch.shape == z.shape
        for row, logits in zip(batch, z):
            np.testing.assert_array_equal(row, softmax(logits))

    def test_scores_center_under_model(self):
        z = np.array([0.3, -0.7, 1.1, 0.0])
        q = softmax(z)
        s = softmax_scores(z)
        np.testing.assert_allclose(s.sum(axis=1), 0.0, atol=1e-15)
        np.testing.assert_allclose(q @ s, 0.0, atol=1e-15)


def enumerated_second_moment(kind, p, logits, tau):
    """sum_j law_j ||g(j)||^2 with g(j) written out per outcome from the
    formulas of exact_second_moment's docstring."""
    q = softmax(logits)
    k = q.size
    f = sum(p[j] ** tau * q[j] ** (1 - tau) for j in range(k))
    total = 0.0
    for j in range(k):
        score = np.eye(k)[j] - q
        u = p[j] / q[j]
        if kind == "cr":
            law, g = q[j], -(1 / tau) * u ** tau * score
        elif kind == "srfe_escort":
            law, g = p[j] ** tau * q[j] ** (1 - tau) / f, -(1 / tau) * score
        else:
            law, g = q[j], -(1 / tau) * (u ** tau / f) * score
        total += law * float(g @ g)
    return total


class TestSecondMoments:
    def test_frozen_instance(self):
        p = DiscreteDist(np.array([0.6, 0.4]))
        z = np.zeros(2)
        cr = exact_second_moment("cr", p, z, 0.5)
        assert cr.empirical == pytest.approx(2.0, abs=1e-14)
        assert cr.bound == pytest.approx(2.0, abs=1e-14)
        esc = exact_second_moment("srfe_escort", p, z, 0.5)
        assert esc.empirical == pytest.approx(2.0, abs=1e-14)
        assert esc.bound == pytest.approx(2.0, abs=1e-14)
        sq = exact_second_moment("srfe_q", p, z, 0.5)
        assert sq.empirical == pytest.approx(2.0204102886728761, abs=1e-13)
        assert sq.bound == pytest.approx(2.0204102886728761, abs=1e-13)

    def test_bounds_hold_on_random_instances(self):
        rng = np.random.default_rng(31)
        for _ in range(40):
            size = int(rng.integers(2, 7))
            p = DiscreteDist.from_unnormalized(rng.dirichlet(np.ones(size)))
            z = rng.normal(size=size)
            tau = float(rng.uniform(0.1, 0.9))
            for kind in ("cr", "srfe_escort", "srfe_q"):
                rep = exact_second_moment(kind, p, z, tau)
                assert rep.empirical <= rep.bound * (1 + 1e-12)

    def test_enumeration_oracle(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            size = int(rng.integers(2, 7))
            p = DiscreteDist.from_unnormalized(rng.dirichlet(np.ones(size)))
            z = rng.normal(size=size)
            tau = float(rng.uniform(0.1, 0.9))
            for kind in estimators._KINDS:
                assert exact_second_moment(kind, p, z, tau).empirical == \
                    pytest.approx(enumerated_second_moment(kind, p.probs, z,
                                                           tau), rel=1e-12)

    def test_ratio_identity(self):
        # the plain-sampling variant carries exactly a 1/F^2 penalty
        rng = np.random.default_rng(37)
        for _ in range(20):
            size = int(rng.integers(2, 7))
            p = DiscreteDist.from_unnormalized(rng.dirichlet(np.ones(size)))
            z = rng.normal(size=size)
            tau = float(rng.uniform(0.1, 0.9))
            cr = exact_second_moment("cr", p, z, tau).empirical
            sq = exact_second_moment("srfe_q", p, z, tau).empirical
            f = float((p.probs ** tau * softmax(z) ** (1 - tau)).sum())
            assert sq == pytest.approx(cr / (f * f), rel=1e-12)

    def test_sampled_consistent_with_enumerated(self):
        p = DiscreteDist(np.array([0.6, 0.4]))
        z = np.zeros(2)
        rng = np.random.default_rng(41)
        for kind, expect in (("cr", 2.0), ("srfe_escort", 2.0),
                             ("srfe_q", 2.0204102886728761)):
            rep = estimator_second_moment(kind, p, z, 0.5, 1_000_000, rng)
            assert rep.empirical == pytest.approx(expect, rel=0.02)
            assert rep.bound == pytest.approx(
                exact_second_moment(kind, p, z, 0.5).bound, abs=1e-14)
        # above, "cr" and "srfe_escort" both give 2.0, so a law paired with
        # the wrong kind would pass; here the three moments lie at least
        # 30% apart, and 10^6 draws land within 0.1% of each, so rel 0.01
        # leaves room for sampling noise and none for a swapped law
        p = DiscreteDist(np.array([0.7, 0.2, 0.1]))
        z = np.array([-0.5, 0.2, 0.6])
        for kind, expect in (("cr", 3.178), ("srfe_escort", 2.233),
                             ("srfe_q", 4.616)):
            exact = exact_second_moment(kind, p, z, 0.6).empirical
            assert exact == pytest.approx(expect, abs=1e-3)
            rep = estimator_second_moment(kind, p, z, 0.6, 1_000_000,
                                          np.random.default_rng(41))
            assert rep.empirical == pytest.approx(exact, rel=0.01)

    def test_starved_support_separates_estimators(self):
        # as one model weight vanishes under a heavy target point, the
        # ratio-based moment blows up while escort sampling stays bounded
        tau = 0.7
        p = DiscreteDist(np.array([0.4, 0.3, 0.2, 0.1]))
        prev = -np.inf
        for k in range(2, 9):
            tiny = 10.0 ** -k
            q = np.array([tiny] + [(1 - tiny) / 3] * 3)
            z = np.log(q)
            cr = exact_second_moment("cr", p, z, tau)
            esc = exact_second_moment("srfe_escort", p, z, tau)
            assert cr.empirical > prev
            assert esc.empirical <= esc.bound * (1 + 1e-12)
            prev = cr.empirical
            if k == 6:
                assert cr.empirical > 100 * esc.empirical

    @pytest.mark.parametrize("kind", ["cr", "srfe_escort", "srfe_q"])
    def test_disjoint_support_raises(self, kind):
        # softmax underflows to q = (0, 1) against p = (1, 0), so F = 0
        p = DiscreteDist(np.array([1.0, 0.0]))
        with pytest.raises(DisjointSupportError):
            exact_second_moment(kind, p, np.array([-800.0, 0.0]), 0.5)
        with pytest.raises(DisjointSupportError):
            estimator_second_moment(kind, p, np.array([-800.0, 0.0]), 0.5,
                                    10, np.random.default_rng(0))

    @pytest.mark.parametrize("kind", ["cr", "srfe_q"])
    def test_model_without_target_mass_raises(self, kind):
        # softmax underflows to q = (1, 0) where p = (0.6, 0.4) has mass
        p = DiscreteDist(np.array([0.6, 0.4]))
        with pytest.raises(AbsoluteContinuityError):
            exact_second_moment(kind, p, np.array([0.0, -800.0]), 0.5)

    @pytest.mark.parametrize("probs, expect", [
        # q = (1, 0) against p = (0.6, 0.4): only the escort kind is defined
        ((0.6, 0.4), {"srfe_escort": (0.0, 8.0)}),
        # q = (1, 0) against p = (1, 0): the outcome q never draws adds 0
        ((1.0, 0.0), {"cr": (0.0, 8.0), "srfe_escort": (0.0, 8.0),
                      "srfe_q": (0.0, 8.0)}),
    ])
    def test_underflowed_model_stays_finite_and_quiet(self, probs, expect):
        p = DiscreteDist(np.array(probs))
        z = np.array([0.0, -800.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for kind, (empirical, bound) in expect.items():
                rep = exact_second_moment(kind, p, z, 0.5)
                assert (rep.empirical, rep.bound) == (empirical, bound)
                rep = estimator_second_moment(kind, p, z, 0.5, 10,
                                              np.random.default_rng(0))
                assert (rep.empirical, rep.bound) == (empirical, bound)

    @pytest.mark.parametrize("kind, logits, tau, term_range", [
        pytest.param(kind, *case, id=kind + suffix)
        for suffix, *case in (
            # softmax gives q_2 = e^-740, about 4.2e-322 and subnormal, so
            # p_2 / q_2 overflows while the outcome's term q_2 u_2^(2 tau) =
            # p_2^0.6 q_2^0.4, about 1.9e-129, is finite and dominates
            ("", (0.0, -740.0), 0.3, (1e-129, 1e-128)),
            # q_2 = e^-690 is normal, but at tau 0.9 u_2^1.8 overflows while
            # the term p_2^1.8 q_2^-0.8, about 3.8e239, is finite
            ("-690-tau0.9", (0.0, -690.0), 0.9, (1e239, 1e240)),
            # q_2 rounds to the least subnormal, and both overflows meet
            ("-745-tau0.9", (0.0, -745.0), 0.9, (1e258, 1e259)))
        for kind in ("cr", "srfe_q")])
    def test_subnormal_model_mass_keeps_its_weight(self, kind, logits, tau,
                                                   term_range):
        p, logits = np.array([0.5, 0.5]), np.array(logits)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = exact_second_moment(kind, DiscreteDist(p), logits, tau)
        # the same sum in the log domain, over the q the model holds: a
        # subnormal q_2 keeps few digits of e^logit (none at -745), and the
        # moment is the model's as represented
        q = softmax(logits)
        log_q = np.log(q)
        norms2 = ((np.eye(2) - q) ** 2).sum(axis=1)
        terms = np.exp(log_q + 2.0 * tau * (np.log(p) - log_q))
        f = np.exp(tau * np.log(p) + (1.0 - tau) * log_q).sum()
        c = f * f if kind == "srfe_q" else 1.0
        assert term_range[0] < terms[1] < term_range[1]
        assert math.isfinite(rep.empirical) and math.isfinite(rep.bound)
        assert rep.empirical == pytest.approx(
            (terms * norms2).sum() / (tau * tau * c), rel=1e-12)
        assert rep.bound == pytest.approx(
            norms2.max() * terms.sum() / (tau * tau * c), rel=1e-12)

    @pytest.mark.parametrize("kind", ["cr", "srfe_escort", "srfe_q"])
    def test_batch_matches_per_instance_calls(self, kind):
        # p (2, 1, k), logits (3, k) and a tau column (2, 1) broadcast to a
        # (2, 3) batch whose entry (i, j) is the call on p[i], logits[j] and
        # tau[i]
        rng = np.random.default_rng(43)
        p = rng.dirichlet(np.ones(4), size=(2, 1))
        logits = 2.0 * rng.standard_normal((3, 4))
        tau = np.array([[0.3], [0.8]])
        rep = exact_second_moment(kind, DiscreteDist(p), logits, tau)
        assert rep.empirical.shape == rep.bound.shape == (2, 3)
        for i, j in np.ndindex(2, 3):
            one = exact_second_moment(kind, DiscreteDist(p[i, 0]), logits[j],
                                      float(tau[i, 0]))
            assert rep.empirical[i, j] == one.empirical
            assert rep.bound[i, j] == one.bound

    @pytest.mark.parametrize("n", [0, -1, 2.5, True, "10", None])
    def test_draw_count_validation(self, n):
        p = DiscreteDist(np.array([0.6, 0.4]))
        with pytest.raises(ValueError, match="n must be an integer >= 1"):
            estimator_second_moment("cr", p, np.zeros(2), 0.5, n,
                                    np.random.default_rng(0))

    def test_kind_and_tau_validation(self):
        p = DiscreteDist(np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            exact_second_moment("other", p, np.zeros(2), 0.5)
        with pytest.raises(ValueError):
            exact_second_moment("cr", p, np.zeros(2), 1.0)
        with pytest.raises(ValueError):
            estimator_second_moment("cr", p, np.zeros(3), 0.5, 10,
                                    np.random.default_rng(0))
        # the sampled tool takes one instance
        for logits, tau in ((np.zeros((2, 2)), 0.5),
                            (np.zeros(2), np.array([0.3, 0.5]))):
            with pytest.raises(ValueError, match="single instance"):
                estimator_second_moment("cr", p, logits, tau, 10,
                                        np.random.default_rng(0))


# ---------------------------------------------------------------------------
# The step as list-and-stack formulas, from the target pass to the gradient.
# The kernels fill preallocated (d, n) rows in place instead; every output
# must come out bit for bit the same.
# ---------------------------------------------------------------------------

LOG_2PI = float(np.log(2.0 * np.pi))


def reference_transform(q, eps):
    return np.stack([mj + sj * ej for mj, sj, ej
                     in zip(q.mu, q.sigma, eps.T)]).T


def reference_z_columns(q, x):
    return [(xj - mj) / sj for xj, mj, sj in zip(x.T, q.mu, q.sigma)]


def reference_q_log_prob(q, x):
    sq = reduce(np.add, [z * z for z in reference_z_columns(q, x)])
    return -0.5 * q.dim * LOG_2PI - q.log_sigma.sum() - 0.5 * sq


def reference_param_score(q, x):
    z = reference_z_columns(q, x)
    return (np.stack([zj / sj for zj, sj in zip(z, q.sigma)]).T,
            np.stack([zj * zj - 1.0 for zj in z]).T)


def reference_components(mix, x):
    norm = -0.5 * mix.dim * (LOG_2PI + np.log(mix.variance))
    rows = []
    for mean, log_w in zip(mix.means, np.log(mix.weights)):
        sq = reduce(np.add, [np.square(xj - mj) for xj, mj in zip(x.T, mean)])
        rows.append(log_w + norm - 0.5 * sq / mix.variance)
    return np.stack(rows)


def reference_logsumexp_terms(a):
    m = a.max(axis=0, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    e = np.exp(a - m)
    s = e.sum(axis=0)
    with np.errstate(divide="ignore"):
        return np.log(s) + m[0], e, s


def reference_mixture(mix, x):
    """(log density, x-score) of a GaussianMixture."""
    lp, e, s = reference_logsumexp_terms(reference_components(mix, x))
    denom = s * mix.variance
    cols = [reduce(np.add, [e_k * (m_kj - xj) for e_k, m_kj in zip(e, mj)])
            / denom for xj, mj in zip(x.T, mix.means.T)]
    return lp, np.stack(cols).T


def reference_blend(con, x, base_lp):
    base_lp = np.log1p(-con.outlier_weight) + base_lp
    if con.outlier_weight == 0.0:
        return base_lp, base_lp, None
    in_box = reduce(np.logical_and, [(xj >= -10.0) & (xj <= 10.0)
                                     for xj in x.T])
    c = float(np.log(con.outlier_weight) - con.dim * np.log(20.0))
    both = np.maximum(base_lp, c) + np.log1p(np.exp(-np.abs(base_lp - c)))
    return base_lp, np.where(in_box, both, base_lp), in_box


def reference_target(target, x):
    """(log density, x-score) of a GaussianMixture or ContaminatedMixture."""
    if isinstance(target, GaussianMixture):
        return reference_mixture(target, x)
    base_lp, score = reference_mixture(target.base, x)
    base_lp, out, in_box = reference_blend(target, x, base_lp)
    if target.outlier_weight > 0.0:
        on_edge = reduce(np.logical_or, [(xj == -10.0) | (xj == 10.0)
                                         for xj in x.T])
        share = np.where(in_box & ~on_edge, np.exp(base_lp - out), 1.0)
        score = share[:, None] * score
    return out, score


def reference_pathwise(q, score, eps, w, scale):
    d_mu, d_ls, sq = [], [], 0.0
    for s_k, eps_k, sigma_k in zip(score.T, eps.T, q.sigma):
        b_k = s_k * (sigma_k * eps_k) + 1.0
        d_mu.append(scale * (w * s_k).sum())
        d_ls.append(scale * (w * b_k).sum())
        sq = sq + s_k * s_k + b_k * b_k
    c = scale * (w.size * w)
    return np.array(d_mu), np.array(d_ls), float((c * c * sq).mean())


def reference_srfe_step(q, target, tau, eps):
    """(loss, f_hat, max_log_ratio, clamped) and (d_mu, d_ls, second moment)."""
    x = reference_transform(q, eps)
    log_p, score = reference_target(target, x)
    r = log_p - reference_q_log_prob(q, x)
    r_max = float(r.max())
    w = np.exp(tau * (r - r_max))
    log_f = tau * r_max + math.log(float(w.mean()))
    if log_f < math.log(1e-10):
        f_hat, clamped = 1e-10, True
    elif log_f > 0.0:
        f_hat, clamped = 1.0, True
    else:
        f_hat, clamped = math.exp(log_f), False
    loss = (-math.log(f_hat) / (tau * (1.0 - tau)), f_hat, r_max, clamped)
    if clamped:
        return loss, (np.zeros(q.dim), np.zeros(q.dim), 0.0)
    return loss, reference_pathwise(q, score, eps, w / w.sum(),
                                    -1.0 / (1.0 - tau))


def reference_forward_kl(q, target, xs):
    """(loss, (d_mu, d_ls, second moment)) of forward KL at samples xs."""
    loss = float(np.mean(reference_target(target, xs)[0]
                         - reference_q_log_prob(q, xs)))
    d_mu_i, d_ls_i = reference_param_score(q, xs)
    cols = [*d_mu_i.T, *d_ls_i.T]
    mean = -np.array([c.mean() for c in cols])
    sq = reduce(np.add, [c * c for c in cols])
    return loss, (mean[:q.dim], mean[q.dim:], float(sq.mean()))


def reference_reverse_kl(q, target, eps):
    """(loss, (d_mu, d_ls, second moment)) of reverse KL at noise eps."""
    x = reference_transform(q, eps)
    log_p, score = reference_target(target, x)
    loss = float(-np.mean(log_p - reference_q_log_prob(q, x)))
    n = eps.shape[0]
    return loss, reference_pathwise(q, score, eps, np.full(n, 1.0 / n), -1.0)


def layouts(a):
    """a as a C-ordered array, an F-ordered copy and a strided view."""
    holder = np.zeros((2 * a.shape[0], a.shape[1] + 1))
    holder[::2, 1:] = a
    return {"C": np.ascontiguousarray(a), "F": np.asfortranarray(a),
            "strided": holder[::2, 1:]}


def assert_grad_equal(got, want):
    np.testing.assert_array_equal(got.d_mu, want[0])
    np.testing.assert_array_equal(got.d_log_sigma, want[1])
    assert got.second_moment == want[2]


def reference_case(n_components, d):
    """A random mixture, a model that puts some draws outside the box, and
    a noise batch long enough for pairwise summation to recurse."""
    rng = np.random.default_rng(1000 + 10 * n_components + d)
    mix = GaussianMixture(means=rng.normal(scale=3.0, size=(n_components, d)),
                          variance=0.7,
                          weights=rng.dirichlet(np.ones(n_components)))
    q = DiagonalGaussian(mu=rng.normal(size=d),
                         log_sigma=rng.normal(0.8, 0.3, size=d))
    eps = rng.standard_normal((1000, d))
    eps[:7] *= 8.0
    return rng, mix, q, eps


@pytest.mark.parametrize("n_components", [1, 2, 3, 5])
@pytest.mark.parametrize("d", [1, 2, 3, 5])
def test_steps_match_reference_formulas(n_components, d):
    rng, mix, q, eps = reference_case(n_components, d)
    far = DiagonalGaussian(mu=np.full(d, 60.0), log_sigma=np.zeros(d))
    for target in (mix, ContaminatedMixture(base=mix, outlier_weight=0.2)):
        cases = [(q, tau) for tau in (0.01, 0.5, 0.99)] + [(far, 0.5)]
        for model, tau in cases:
            want_loss, want_grad = reference_srfe_step(model, target, tau, eps)
            if model is far:
                assert want_loss[3]  # the clamped case
            for eps_in in layouts(eps).values():
                rep, grad = srfe_mc_step(model, target, tau, eps_in)
                assert (rep.loss, rep.f_hat, rep.max_log_ratio,
                        rep.clamped) == want_loss
                assert_grad_equal(grad, want_grad)

        want_loss, want_grad = reference_reverse_kl(q, target, eps)
        for eps_in in layouts(eps).values():
            assert reverse_kl_loss(q, target, eps_in) == want_loss
            assert_grad_equal(reverse_kl_grad(q, target, eps_in), want_grad)

        xs = target.sample(1000, rng)
        want_loss, want_grad = reference_forward_kl(q, target, xs)
        for xs_in in layouts(xs).values():
            assert forward_kl_loss(q, target, xs_in) == want_loss
            assert_grad_equal(forward_kl_grad(q, xs_in), want_grad)


@pytest.mark.parametrize("n_components", [1, 2, 3, 5])
@pytest.mark.parametrize("d", [1, 2, 3, 5])
def test_kernels_match_reference_formulas(n_components, d):
    rng, mix, q, eps = reference_case(n_components, d)
    x = reference_transform(q, eps)
    x[::3, 0] = np.where(rng.random(x[::3].shape[0]) < 0.5, -10.0, 10.0)
    for got, want in zip(_param_score_rows(x.T - q.mu[:, None],
                                           q.sigma[:, None]),
                         reference_param_score(q, x)):
        np.testing.assert_array_equal(got.T, want)
    for x_in in layouts(x).values():
        np.testing.assert_array_equal(q.log_prob(x_in),
                                      reference_q_log_prob(q, x))
        lp, score = q.log_prob_and_score(x_in)
        np.testing.assert_array_equal(lp, reference_q_log_prob(q, x))
        np.testing.assert_array_equal(score, np.stack(
            [-(xj - mj) / vj for xj, mj, vj
             in zip(x.T, q.mu, q.sigma ** 2)]).T)
        want_lp, want_score = reference_mixture(mix, x)
        np.testing.assert_array_equal(mix.log_prob(x_in), want_lp)
        lp, score = mix.log_prob_and_score(x_in)
        np.testing.assert_array_equal(lp, want_lp)
        np.testing.assert_array_equal(score, want_score)
        for w in (0.0, 0.2):
            con = ContaminatedMixture(base=mix, outlier_weight=w)
            want_lp, want_score = reference_target(con, x)
            np.testing.assert_array_equal(con.log_prob(x_in), want_lp)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                lp, score = con.log_prob_and_score(x_in)
            np.testing.assert_array_equal(lp, want_lp)
            np.testing.assert_array_equal(score, want_score)
    for eps_in in layouts(eps).values():
        np.testing.assert_array_equal(q.transform(eps_in),
                                      reference_transform(q, eps))


# ---------------------------------------------------------------------------
# Stacks: J fits on one shared batch, one array program.  Each row must come
# out bit for bit as the same fit stepped alone by the one-row functions.
# ---------------------------------------------------------------------------

class NoSupport:
    """No point in its support: every log ratio is -inf, so a free-energy
    row clamps low."""
    dim = 2

    def log_prob_and_score(self, x):
        x = np.asarray(x)
        return np.full(x.shape[0], -np.inf), np.zeros_like(x)


def stack_models():
    """Models near the benchmark target and one far from it, which clamps
    low at every tau."""
    rng = np.random.default_rng(11)
    near = [DiagonalGaussian(mu=rng.normal(scale=2.0, size=2),
                             log_sigma=rng.normal(0.3, 0.3, size=2))
            for _ in range(3)]
    return near + [DiagonalGaussian(mu=np.full(2, 60.0),
                                    log_sigma=np.zeros(2))]


def stack_of(models):
    return np.stack([np.stack((q.mu, q.log_sigma)) for q in models])


@pytest.mark.parametrize("n", [1, 7, 1000])
def test_stacked_q_side_rows_match_one_row_calls(n):
    targets = (BENCH, ContaminatedMixture(base=BENCH, outlier_weight=0.0),
               ContaminatedMixture(base=BENCH, outlier_weight=0.2),
               NoSupport())
    # rows grouped by target, as a stack orders them; tau 0 is reverse KL
    rows = [(target, q, tau) for target in targets for q in stack_models()
            for tau in (0.01, 0.0, 0.5, 0.99)]
    theta = stack_of([q for _, q, _ in rows])
    taus = [tau for _, _, tau in rows]
    eps = np.random.default_rng(12).standard_normal((n, 2))
    eps[:3] *= 6.0
    clamped = 0
    for eps_in in layouts(eps).values():
        x, log_q = _q_rows(theta, eps_in)
        assert x.flags.c_contiguous and log_q.flags.c_contiguous
        r, score = np.empty(log_q.shape), np.empty(x.shape)
        per_target = len(rows) // len(targets)
        for k, target in enumerate(targets):
            part = slice(k * per_target, (k + 1) * per_target)
            r[part], score[:, part] = _target_rows(target, x[:, part],
                                                   log_q[part])
        reports, grad, second = _q_side_rows(theta, eps_in, r, score, taus,
                                             moments=True)
        for j, (target, q, tau) in enumerate(rows):
            if tau == 0.0:
                want_loss = reverse_kl_loss(q, target, eps)
                want = reverse_kl_grad(q, target, eps)
                assert reports[j].loss == want_loss
                assert reports[j].f_hat == 1.0 and not reports[j].clamped
            else:
                want_rep, want = srfe_mc_step(q, target, tau, eps)
                assert reports[j] == want_rep
                clamped += want_rep.clamped
            np.testing.assert_array_equal(grad[j, 0], want.d_mu)
            np.testing.assert_array_equal(grad[j, 1], want.d_log_sigma)
            assert second[j] == want.second_moment
        without = _q_side_rows(theta, eps_in, r.copy(), score, taus)
        assert without[1].shape == grad.shape and without[2] is None
    # the far model and the no-support target clamp low, at every tau
    assert clamped >= 3 * 7


@pytest.mark.parametrize("n", [1, 7, 1000])
def test_stacked_forward_rows_match_one_row_calls(n):
    models = stack_models()
    xs = BENCH.sample(n, np.random.default_rng(13))
    for xs_in in layouts(xs).values():
        losses, grad, second = _forward_rows(
            stack_of(models), xs_in, BENCH.log_prob(xs_in), moments=True)
        for j, q in enumerate(models):
            assert losses[j] == forward_kl_loss(q, BENCH, xs)
            want = forward_kl_grad(q, xs)
            np.testing.assert_array_equal(grad[j, 0], want.d_mu)
            np.testing.assert_array_equal(grad[j, 1], want.d_log_sigma)
            assert second[j] == want.second_moment


class RaisingTarget:
    """Every pass raises exc."""
    dim = 2

    def __init__(self, exc):
        self.exc = exc

    def log_prob_and_score(self, x):
        raise self.exc


@pytest.mark.parametrize("n", [1, 7, 1000])
def test_q_side_step_matches_one_row_calls_without_warnings(n, monkeypatch):
    exc = FloatingPointError("overflow")
    targets = (BENCH, RaisingTarget(exc),
               ContaminatedMixture(base=BENCH, outlier_weight=0.2),
               NoSupport())
    # the raising target and BENCH come back after other targets: each run
    # of rows with one target is its own pass, and fails alone
    order = (*targets, targets[1], BENCH)
    rows = [(target, q, tau) for target in order for q in stack_models()
            for tau in (0.01, 0.0, 0.5, 0.99)]
    taus = [tau for _, _, tau in rows]
    eps = np.random.default_rng(12).standard_normal((n, 2))
    eps[:3] *= 6.0
    passes = []
    real_target_rows = estimators._target_rows

    def recording_target_rows(target, x, *args):
        passes.append((target, x.shape[1]))
        return real_target_rows(target, x, *args)

    monkeypatch.setattr(estimators, "_target_rows", recording_target_rows)
    # rows with no support and clamped rows compute their weights too, and
    # must do so quietly
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        reports, grad, second, failed = _q_side_step(
            stack_of([q for _, q, _ in rows]), eps,
            [target for target, _, _ in rows], taus, moments=True)
        monkeypatch.undo()
        run = len(rows) // len(order)
        assert [m for _, m in passes] == [run] * len(order)
        assert all(got is want for (got, _), want in zip(passes, order))
        assert grad.shape == (len(rows), 2, 2) and second.shape == (len(rows),)
        for j, (target, q, tau) in enumerate(rows):
            if target is targets[1]:
                assert failed.pop(j) is exc
                with pytest.raises(FloatingPointError) as error:
                    if tau:
                        srfe_mc_step(q, target, tau, eps)
                    else:
                        reverse_kl_grad(q, target, eps)
                assert error.value is exc
                continue
            if tau:
                want_rep, want = srfe_mc_step(q, target, tau, eps)
                assert reports[j] == want_rep
            else:
                assert reports[j].loss == reverse_kl_loss(q, target, eps)
                want = reverse_kl_grad(q, target, eps)
            np.testing.assert_array_equal(grad[j, 0], want.d_mu)
            np.testing.assert_array_equal(grad[j, 1], want.d_log_sigma)
            assert second[j] == want.second_moment
            if reports[j].clamped:
                assert not grad[j].any() and second[j] == 0.0
    assert failed == {}
    # the far model and the no-support target clamp low, at every tau
    assert sum(rep.clamped for rep in reports) >= 3 * 7


def test_reverse_kl_gradient_without_support_has_uniform_weights():
    # every r is -inf: the loss is inf, and the tau = 0 row's weights are
    # 1/n whatever r holds, so the pathwise gradient is finite
    eps = np.random.default_rng(14).standard_normal((64, 2))
    for q in stack_models():
        assert reverse_kl_loss(q, NoSupport(), eps) == math.inf
        grad = reverse_kl_grad(q, NoSupport(), eps)
        np.testing.assert_array_equal(grad.d_mu, [0.0, 0.0])
        np.testing.assert_array_equal(grad.d_log_sigma, [-1.0, -1.0])
        assert grad.second_moment == 2.0


# ---------------------------------------------------------------------------
# Buffers: a call never writes an argument, and every estimator checks its
# batch the same way
# ---------------------------------------------------------------------------

BOXED = ContaminatedMixture(base=BENCH, outlier_weight=0.2)
MODEL = DiagonalGaussian(mu=np.array([0.5, 1.0]),
                         log_sigma=np.array([0.3, -0.1]))

# name -> (call on a batch, whether it also takes a single point)
POINT_CALLS = {
    "DiagonalGaussian.transform": (MODEL.transform, True),
    "DiagonalGaussian.log_prob": (MODEL.log_prob, True),
    "DiagonalGaussian.log_prob_and_score": (MODEL.log_prob_and_score, True),
    "GaussianMixture.log_prob": (BENCH.log_prob, True),
    "GaussianMixture.log_prob_and_score": (BENCH.log_prob_and_score, True),
    "ContaminatedMixture.log_prob": (BOXED.log_prob, True),
    "ContaminatedMixture.log_prob_and_score": (BOXED.log_prob_and_score,
                                               True),
    "srfe_mc_step": (lambda b: srfe_mc_step(MODEL, BOXED, 0.5, b), False),
    "forward_kl_loss": (lambda b: forward_kl_loss(MODEL, BOXED, b), False),
    "forward_kl_grad": (lambda b: forward_kl_grad(MODEL, b), False),
    "reverse_kl_loss": (lambda b: reverse_kl_loss(MODEL, BOXED, b), False),
    "reverse_kl_grad": (lambda b: reverse_kl_grad(MODEL, BOXED, b), False),
}
ESTIMATORS = ("srfe_mc_step", "forward_kl_loss", "forward_kl_grad",
              "reverse_kl_loss", "reverse_kl_grad")


def assert_same_result(got, want):
    if dataclasses.is_dataclass(got):
        got, want = dataclasses.astuple(got), dataclasses.astuple(want)
    if isinstance(got, tuple):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert_same_result(g, w)
    else:
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("name", sorted(POINT_CALLS))
def test_inputs_are_never_written(name):
    call, takes_point = POINT_CALLS[name]
    x = 4.0 * np.random.default_rng(7).standard_normal((300, 2))
    x[:5] *= 5.0  # some rows outside the outlier box
    for batch in (x, x[3]) if takes_point else (x,):
        before = batch.tobytes()
        want = call(batch)
        assert batch.tobytes() == before
        frozen = batch.copy()
        frozen.flags.writeable = False
        assert_same_result(call(frozen), want)


@pytest.mark.parametrize("name", ESTIMATORS)
@pytest.mark.parametrize("shape", [(0, 2), (5, 3), (2,)])
def test_every_estimator_checks_its_batch(name, shape):
    call = POINT_CALLS[name][0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"\(n, 2\) with n >= 1"):
            call(np.zeros(shape))
