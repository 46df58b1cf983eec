"""Monte-Carlo losses and gradients: exact zero at the target, clamp
behaviour, common-random-numbers derivative checks, the per-coordinate
gradient kernels against the (n, 2d) concatenated form, the Gaussian closed
form, and second-moment bounds on the softmax family."""
import math

import numpy as np
import pytest

from srfe_lab.discrete import DiscreteDist
from srfe_lab.estimators import (
    _pathwise_grad,
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
    """_pathwise_grad as one (n, 2d) array reduced over both axes."""
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
    w = rng.random(eps.shape[0])
    for weights, scale in ((w / w.sum(), -1.0 / 0.3),
                           (np.full(eps.shape[0], 1.0 / eps.shape[0]), -1.0)):
        got = _pathwise_grad(q, score, eps, weights, scale)
        want, second = concatenated_pathwise(q, score, eps, weights, scale)
        np.testing.assert_allclose(
            np.concatenate([got.d_mu, got.d_log_sigma]), want,
            rtol=1e-12, atol=0.0)
        assert got.second_moment == pytest.approx(second, rel=1e-12, abs=0.0)
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

    def test_scores_center_under_model(self):
        z = np.array([0.3, -0.7, 1.1, 0.0])
        q = softmax(z)
        s = softmax_scores(z)
        np.testing.assert_allclose(s.sum(axis=1), 0.0, atol=1e-15)
        np.testing.assert_allclose(q @ s, 0.0, atol=1e-15)


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

    def test_kind_and_tau_validation(self):
        p = DiscreteDist(np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            exact_second_moment("other", p, np.zeros(2), 0.5)
        with pytest.raises(ValueError):
            exact_second_moment("cr", p, np.zeros(2), 1.0)
        with pytest.raises(ValueError):
            estimator_second_moment("cr", p, np.zeros(3), 0.5, 10,
                                    np.random.default_rng(0))
