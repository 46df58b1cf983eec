"""Density models: frozen log-density values, finite-difference score checks,
sampling frequencies, the closed-form equal-covariance divergence against
numerical integration, input-width checks, and the per-component kernels
against the (n, K, d) broadcast formulas written out below."""
import math
import warnings

import numpy as np
import pytest
from scipy import integrate

from srfe_lab.gaussians import (
    BLOCK_ROWS,
    ContaminatedMixture,
    DiagonalGaussian,
    GaussianMixture,
    _param_score_rows,
    srfe_equal_covariance,
)

MEANS = np.array([[-3.0, 0.0], [3.0, 0.0], [0.0, 4.0]])
WEIGHTS = np.array([0.3, 0.3, 0.4])
VARIANCE = 0.5


def make_mixture():
    return GaussianMixture(means=MEANS, variance=VARIANCE, weights=WEIGHTS)


def mixture_log_prob_loop(mix, x):
    # direct per-component summation, no shared code with the library
    total = 0.0
    d = len(x)
    for mean, w in zip(mix.means, mix.weights):
        sq = sum((xi - mi) ** 2 for xi, mi in zip(x, mean))
        total += w * math.exp(-sq / (2 * mix.variance)) \
            / (2 * math.pi * mix.variance) ** (d / 2)
    return math.log(total)


class TestDiagonalGaussian:
    def test_frozen_log_prob_and_entropy(self):
        q = DiagonalGaussian(mu=np.array([0.5, -1.0]),
                             log_sigma=np.array([0.1, -0.2]))
        assert q.log_prob(np.array([1.0, 0.0])) == pytest.approx(
            -2.5861307593647284, abs=1e-14)
        assert q.entropy() == pytest.approx(2.7378770664093455, abs=1e-14)

    def test_transform_is_affine(self):
        q = DiagonalGaussian(mu=np.array([1.0, -2.0]),
                             log_sigma=np.array([0.0, math.log(3.0)]))
        eps = np.array([[0.5, -1.0], [0.0, 2.0]])
        np.testing.assert_allclose(
            q.transform(eps), [[1.5, -5.0], [1.0, 4.0]], atol=1e-12)

    def test_param_score_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        q = DiagonalGaussian(mu=np.array([0.3, -0.8, 1.2]),
                             log_sigma=np.array([-0.5, 0.2, 0.0]))
        x = rng.normal(size=3)
        d_mu, d_ls = _param_score_rows(x - q.mu, q.sigma)
        h = 1e-6
        for k in range(3):
            for field, grad in (("mu", d_mu), ("log_sigma", d_ls)):
                up = {f: getattr(q, f).copy() for f in ("mu", "log_sigma")}
                dn = {f: getattr(q, f).copy() for f in ("mu", "log_sigma")}
                up[field][k] += h
                dn[field][k] -= h
                fd = (DiagonalGaussian(**up).log_prob(x)
                      - DiagonalGaussian(**dn).log_prob(x)) / (2 * h)
                assert grad[k] == pytest.approx(fd, abs=1e-5)

    def test_score_x_matches_finite_differences(self):
        q = DiagonalGaussian(mu=np.array([0.0, 1.0]),
                             log_sigma=np.array([0.3, -0.1]))
        x = np.array([0.7, 0.2])
        h = 1e-6
        s = q.log_prob_and_score(x)[1]
        for k in range(2):
            xp, xm = x.copy(), x.copy()
            xp[k] += h
            xm[k] -= h
            assert s[k] == pytest.approx(
                (q.log_prob(xp) - q.log_prob(xm)) / (2 * h), abs=1e-5)

    def test_sampling_moments(self):
        q = DiagonalGaussian(mu=np.array([2.0, -1.0]),
                             log_sigma=np.array([0.0, math.log(0.5)]))
        xs = q.sample(200_000, np.random.default_rng(0))
        np.testing.assert_allclose(xs.mean(axis=0), [2.0, -1.0], atol=0.02)
        np.testing.assert_allclose(xs.std(axis=0), [1.0, 0.5], atol=0.02)

    def test_batched_log_prob(self):
        q = DiagonalGaussian(mu=np.zeros(2), log_sigma=np.zeros(2))
        xs = np.array([[0.0, 0.0], [1.0, 1.0]])
        lp = q.log_prob(xs)
        assert lp.shape == (2,)
        assert lp[0] == pytest.approx(-math.log(2 * math.pi), abs=1e-14)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            DiagonalGaussian(mu=np.zeros(2), log_sigma=np.zeros(3))


class TestGaussianMixture:
    def test_frozen_log_probs(self):
        mix = make_mixture()
        at_mode = mix.log_prob(np.array([-3.0, 0.0]))
        assert at_mode == pytest.approx(-2.3487026901568187, abs=1e-13)
        # the on-mode value is dominated by, and slightly above, its own term
        assert at_mode > math.log(0.3 / math.pi)
        assert at_mode == pytest.approx(math.log(0.3 / math.pi), abs=1e-8)
        assert mix.log_prob(np.array([0.0, 1.5])) == pytest.approx(
            -8.3009644305935306, abs=1e-13)

    def test_matches_direct_loop(self):
        mix = make_mixture()
        rng = np.random.default_rng(1)
        for _ in range(50):
            x = rng.uniform(-6, 6, size=2)
            assert mix.log_prob(x) == pytest.approx(
                mixture_log_prob_loop(mix, x), abs=1e-12)

    def test_score_x_matches_finite_differences(self):
        mix = make_mixture()
        rng = np.random.default_rng(5)
        h = 1e-6
        for _ in range(10):
            x = rng.uniform(-5, 5, size=2)
            s = mix.log_prob_and_score(x)[1]
            for k in range(2):
                xp, xm = x.copy(), x.copy()
                xp[k] += h
                xm[k] -= h
                fd = (mix.log_prob(xp) - mix.log_prob(xm)) / (2 * h)
                assert s[k] == pytest.approx(fd, abs=1e-4)

    def test_component_frequencies(self):
        mix = make_mixture()
        n = 100_000
        xs = mix.sample(n, np.random.default_rng(9))
        # modes are far apart relative to sqrt(variance): nearest-mean
        # assignment recovers the drawn component almost surely
        d2 = ((xs[:, None, :] - MEANS[None, :, :]) ** 2).sum(axis=2)
        counts = np.bincount(d2.argmin(axis=1), minlength=3)
        for k, w in enumerate(WEIGHTS):
            sigma = math.sqrt(w * (1 - w) / n)
            assert abs(counts[k] / n - w) <= 3 * sigma

    def test_validation(self):
        with pytest.raises(ValueError):
            GaussianMixture(means=MEANS, variance=0.5, weights=np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            GaussianMixture(means=MEANS, variance=-1.0, weights=WEIGHTS)
        with pytest.raises(ValueError):
            GaussianMixture(means=np.zeros(3), variance=0.5, weights=WEIGHTS)

    @pytest.mark.parametrize("means,variance", [
        ([[math.nan, 0.0]], 0.5), ([[math.inf, 0.0]], 0.5),
        ([[0.0, 0.0]], math.inf), ([[0.0, 0.0]], math.nan),
    ], ids=["nan_mean", "inf_mean", "inf_variance", "nan_variance"])
    def test_rejects_non_finite(self, means, variance):
        # each would give NaN or -inf densities and NaN scores
        with pytest.raises(ValueError, match="finite|positive"):
            GaussianMixture(means=np.array(means), variance=variance,
                            weights=np.array([1.0]))


class TestContaminatedMixture:
    def test_in_box_identity(self):
        base = make_mixture()
        w = 0.17
        mix = ContaminatedMixture(base=base, outlier_weight=w)
        rng = np.random.default_rng(2)
        for _ in range(50):
            x = rng.uniform(-9.5, 9.5, size=2)
            expect = math.log((1 - w) * math.exp(base.log_prob(x)) + w / 400.0)
            assert mix.log_prob(x) == pytest.approx(expect, abs=1e-12)

    def test_frozen_values(self):
        mix = ContaminatedMixture(base=make_mixture(), outlier_weight=0.25)
        assert mix.log_prob(np.array([1.0, -2.0])) == pytest.approx(
            -7.3400379521124087, abs=1e-13)
        # outside the box only the damped base density remains
        assert mix.log_prob(np.array([11.0, 0.0])) == pytest.approx(
            -66.636384762627117, abs=1e-12)
        assert mix.log_prob(np.array([11.0, 0.0])) == pytest.approx(
            math.log(0.75) + make_mixture().log_prob(np.array([11.0, 0.0])),
            abs=1e-12)

    def test_zero_weight_reduces_to_base(self):
        base = make_mixture()
        mix = ContaminatedMixture(base=base, outlier_weight=0.0)
        rng = np.random.default_rng(4)
        xs = rng.uniform(-12, 12, size=(40, 2))
        np.testing.assert_array_equal(mix.log_prob(xs), base.log_prob(xs))
        np.testing.assert_array_equal(mix.log_prob_and_score(xs)[1],
                                      base.log_prob_and_score(xs)[1])

    def test_score_matches_finite_differences_off_boundary(self):
        mix = ContaminatedMixture(base=make_mixture(), outlier_weight=0.2)
        h = 1e-6
        for x in (np.array([0.5, 1.0]), np.array([-4.0, 2.0]),
                  np.array([10.5, 0.5])):
            s = mix.log_prob_and_score(x)[1]
            for k in range(2):
                xp, xm = x.copy(), x.copy()
                xp[k] += h
                xm[k] -= h
                fd = (mix.log_prob(xp) - mix.log_prob(xm)) / (2 * h)
                assert s[k] == pytest.approx(fd, abs=1e-4)

    def test_boundary_score_warns(self):
        mix = ContaminatedMixture(base=make_mixture(), outlier_weight=0.2)
        with pytest.warns(RuntimeWarning):
            mix.log_prob_and_score(np.array([10.0, 0.0]))

    def test_outlier_fraction_in_samples(self):
        mix = ContaminatedMixture(base=make_mixture(), outlier_weight=0.3)
        n = 20_000
        xs = mix.sample(n, np.random.default_rng(8))
        # base mass beyond max-norm 6 is negligible, so that region is
        # populated by the uniform part: 0.3 * (1 - 0.6^2) of all draws
        far = (np.abs(xs).max(axis=1) > 6.0).mean()
        expect = 0.3 * (1 - 0.36)
        assert abs(far - expect) <= 3 * math.sqrt(expect * (1 - expect) / n)

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            ContaminatedMixture(base=make_mixture(), outlier_weight=1.0)
        with pytest.raises(ValueError):
            ContaminatedMixture(base=make_mixture(), outlier_weight=-0.1)


@pytest.mark.parametrize("dist", [
    DiagonalGaussian(mu=np.array([0.5, -1.0]), log_sigma=np.array([0.2, -0.3])),
    make_mixture(),
    ContaminatedMixture(base=make_mixture(), outlier_weight=0.0),
    ContaminatedMixture(base=make_mixture(), outlier_weight=0.2),
], ids=["diagonal", "mixture", "contaminated_w0", "contaminated_w0.2"])
def test_log_prob_and_score_matches_separate_calls(dist):
    # the one pass must give exactly log_prob's log densities, inside and
    # outside the outlier box
    xs = np.random.default_rng(12).uniform(-12, 12, size=(40, 2))
    lp, score = dist.log_prob_and_score(xs)
    np.testing.assert_array_equal(lp, dist.log_prob(xs))
    assert score.shape == (40, 2)
    lp1, score1 = dist.log_prob_and_score(xs[3])
    assert isinstance(lp1, float) and lp1 == dist.log_prob(xs[3])
    assert score1.shape == (2,)


WIDTH_CASES = [
    (DiagonalGaussian(mu=np.array([0.5, -1.0]), log_sigma=np.array([0.2, -0.3])),
     ("transform", "log_prob", "log_prob_and_score")),
    (make_mixture(), ("log_prob", "log_prob_and_score")),
    (ContaminatedMixture(base=make_mixture(), outlier_weight=0.0),
     ("log_prob", "log_prob_and_score")),
    (ContaminatedMixture(base=make_mixture(), outlier_weight=0.2),
     ("log_prob", "log_prob_and_score")),
]


@pytest.mark.parametrize("dist,methods", WIDTH_CASES,
                         ids=["diagonal", "mixture", "contaminated_w0",
                              "contaminated_w0.2"])
@pytest.mark.parametrize("width", [1, 3])
@pytest.mark.parametrize("shape", ["batch", "point"])
def test_wrong_width_rejected(dist, methods, width, shape):
    # a width-1 input used to broadcast silently against the d = 2 model,
    # and a wider one must not lose its extra columns
    x = np.ones((4, width)) if shape == "batch" else np.ones(width)
    for method in methods:
        with pytest.raises(ValueError, match=r"\(n, 2\)"):
            getattr(dist, method)(x)


# ---------------------------------------------------------------------------
# The (n, K, d) broadcast formulas the per-component kernels replace
# ---------------------------------------------------------------------------

def broadcast_components(mix, xb):
    """(n, K) log of weight_k * N(x; m_k, variance I)."""
    diff = xb[:, None, :] - mix.means[None, :, :]
    sq = (diff * diff).sum(axis=2)
    norm = -0.5 * mix.dim * (np.log(2.0 * np.pi) + np.log(mix.variance))
    return np.log(mix.weights)[None, :] + norm - 0.5 * sq / mix.variance


def broadcast_mixture(mix, xb):
    """(log density, score) of the mixture, reducing over K and d."""
    comp = broadcast_components(mix, xb)
    m = comp.max(axis=1, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    with np.errstate(divide="ignore"):
        lp = np.log(np.exp(comp - m).sum(axis=1)) + m[:, 0]
    resp = np.exp(comp - lp[:, None])
    pull = (mix.means[None, :, :] - xb[:, None, :]) / mix.variance
    return lp, (resp[:, :, None] * pull).sum(axis=1)


def broadcast_contaminated(con, xb):
    """(log density, score) of the box blend, masks reduced over d."""
    base_lp, score = broadcast_mixture(con.base, xb)
    base_lp = np.log1p(-con.outlier_weight) + base_lp
    if con.outlier_weight == 0.0:
        return base_lp, score
    in_box = np.all((xb >= -10.0) & (xb <= 10.0), axis=1)
    box = float(np.log(con.outlier_weight) - con.dim * np.log(20.0))
    out = np.logaddexp(base_lp, np.where(in_box, box, -np.inf))
    on_edge = np.any((xb == -10.0) | (xb == 10.0), axis=1)
    share = np.where(in_box & ~on_edge, np.exp(base_lp - out), 1.0)
    return out, share[:, None] * score


def broadcast_diagonal(q, xb):
    """(log density, x-score, d/dmu, d/dlog_sigma) of the mean-field Gaussian."""
    z = (xb - q.mu) / q.sigma
    lp = -0.5 * q.dim * np.log(2.0 * np.pi) - q.log_sigma.sum() \
        - 0.5 * (z * z).sum(axis=1)
    return lp, -(xb - q.mu) / q.sigma ** 2, z / q.sigma, z * z - 1.0


def reference_points(rng, d, n=300):
    """Points near the modes and, in the first rows, 1000 away from all."""
    xs = rng.normal(scale=4.0, size=(n, d))
    xs[:5] = 1000.0 * rng.choice([-1.0, 1.0], size=(5, d))
    return xs


@pytest.mark.parametrize("n_components", [1, 2, 3, 5])
@pytest.mark.parametrize("d", [1, 2, 3, 5])
def test_kernels_match_broadcast_formulas(n_components, d):
    rng = np.random.default_rng(100 * n_components + d)
    mix = GaussianMixture(means=rng.normal(scale=3.0, size=(n_components, d)),
                          variance=0.7,
                          weights=rng.dirichlet(np.ones(n_components)))
    xs = reference_points(rng, d)
    # far rows: every component's density underflows without the shift
    assert np.all(broadcast_components(mix, xs[:5]).max(axis=1) < -800.0)
    lp, score = mix.log_prob_and_score(xs)
    ref_lp, ref_score = broadcast_mixture(mix, xs)
    np.testing.assert_array_equal(lp, ref_lp)
    np.testing.assert_array_equal(mix.log_prob(xs), ref_lp)
    np.testing.assert_allclose(score, ref_score, rtol=1e-13, atol=0.0)
    assert score.shape == (xs.shape[0], d)

    q = DiagonalGaussian(mu=rng.normal(size=d),
                         log_sigma=rng.normal(scale=0.3, size=d))
    ref = broadcast_diagonal(q, xs)
    np.testing.assert_array_equal(q.log_prob(xs), ref[0])
    np.testing.assert_array_equal(q.log_prob_and_score(xs)[0], ref[0])
    np.testing.assert_allclose(q.log_prob_and_score(xs)[1], ref[1],
                               rtol=1e-13, atol=0.0)
    for got, want in zip(_param_score_rows(xs.T - q.mu[:, None],
                                           q.sigma[:, None]), ref[2:]):
        np.testing.assert_allclose(got.T, want, rtol=1e-13, atol=0.0)
    eps = rng.standard_normal((50, d))
    np.testing.assert_array_equal(q.transform(eps), q.mu + q.sigma * eps)

    # box faces: one coordinate exactly on a face in every other row
    faces = xs.copy()
    faces[::2, 0] = np.where(rng.random(faces[::2].shape[0]) < 0.5,
                             -10.0, 10.0)
    for w in (0.0, 0.2):
        con = ContaminatedMixture(base=mix, outlier_weight=w)
        ref_lp, ref_score = broadcast_contaminated(con, faces)
        if w > 0.0:
            # the closed-form box blend rounds as numpy's vector exp and
            # log1p do, a few ulp from np.logaddexp's scalar libm loop
            np.testing.assert_array_max_ulp(con.log_prob(faces), ref_lp,
                                            maxulp=4)
            with pytest.warns(RuntimeWarning, match="boundary"):
                lp, score = con.log_prob_and_score(faces)
            np.testing.assert_array_max_ulp(lp, ref_lp, maxulp=4)
        else:
            np.testing.assert_array_equal(con.log_prob(faces), ref_lp)
            lp, score = con.log_prob_and_score(faces)
            np.testing.assert_array_equal(lp, ref_lp)
        np.testing.assert_allclose(score, ref_score, rtol=1e-13, atol=0.0)

    # in the box but far from every mode only the uniform floor is left;
    # outside the box only the damped base density
    near = GaussianMixture(means=0.1 * mix.means, variance=0.7,
                           weights=mix.weights)
    con = ContaminatedMixture(base=near, outlier_weight=0.2)
    floor = np.log(0.2) - d * np.log(20.0)
    corners = 9.5 * rng.choice([-1.0, 1.0], size=(20, d))
    far = corners[np.log1p(-0.2) + near.log_prob(corners) < floor - 40.0]
    assert far.shape[0] > 0
    np.testing.assert_array_max_ulp(con.log_prob(far),
                                    np.full(far.shape[0], floor), maxulp=4)
    outside = np.concatenate([xs[:5], corners + np.sign(corners)])
    np.testing.assert_array_equal(con.log_prob(outside),
                                  np.log1p(-0.2) + near.log_prob(outside))


def out_of_place_samples(mix, n, rng, outlier_weight=None):
    """The draws of GaussianMixture.sample, or ContaminatedMixture.sample
    with its base mix, in one shot over all n rows, each formula taking a
    new array per operation."""
    if outlier_weight is not None:
        from_box = rng.random(n) < outlier_weight
        base_draws = out_of_place_samples(mix, n, rng)
        box_draws = rng.uniform(-10.0, 10.0, size=(n, mix.dim))
        return np.where(from_box[:, None], box_draws, base_draws)
    comps = rng.choice(mix.n_components, size=n, p=mix.weights)
    noise = rng.standard_normal((n, mix.dim))
    return mix.means[comps] + np.sqrt(mix.variance) * noise


@pytest.mark.parametrize("n", [0, 1, 7, 5000, BLOCK_ROWS - 1, BLOCK_ROWS,
                               BLOCK_ROWS + 1, 3 * BLOCK_ROWS + 5])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_samples_match_the_out_of_place_formulas(n, d):
    # the samplers work BLOCK_ROWS rows at a time
    rng = np.random.default_rng(10 * n + d)
    mix = GaussianMixture(means=rng.normal(scale=3.0, size=(3, d)),
                          variance=0.7, weights=WEIGHTS)
    for w in (None, 0.0, 0.2):
        dist = mix if w is None else ContaminatedMixture(base=mix,
                                                         outlier_weight=w)
        got_rng, want_rng = (np.random.default_rng(n) for _ in range(2))
        got = dist.sample(n, got_rng)
        want = out_of_place_samples(mix, n, want_rng, w)
        assert got.shape == want.shape == (n, d)
        assert got.tobytes() == want.tobytes()
        # and the generator is left where the formulas leave it
        assert got_rng.bit_generator.state == want_rng.bit_generator.state


def test_samples_of_300_components_match_the_formula():
    # past 256 components the sampler keeps its indices as uint16
    rng = np.random.default_rng(300)
    mix = GaussianMixture(means=rng.normal(scale=3.0, size=(300, 2)),
                          variance=0.7, weights=rng.dirichlet(np.ones(300)))
    n = BLOCK_ROWS + 1
    got = mix.sample(n, np.random.default_rng(1))
    want = out_of_place_samples(mix, n, np.random.default_rng(1))
    assert got.tobytes() == want.tobytes()


class TestEqualCovarianceValue:
    def test_unit_shift(self):
        assert srfe_equal_covariance([0.0], [1.0], 0.5) == 1.0
        assert srfe_equal_covariance([0.0, 0.0], [1.0, 0.0], 0.5) == 1.0

    def test_matches_numerical_overlap(self):
        v, shift = 0.5, 1.0

        def overlap(tau):
            def f(x):
                lp = -x * x / (2 * v)
                lq = -(x - shift) ** 2 / (2 * v)
                return math.exp(tau * lp + (1 - tau) * lq) \
                    / math.sqrt(2 * math.pi * v)
            return integrate.quad(f, -np.inf, np.inf)[0]

        for tau in (0.3, 0.5, 0.7):
            val = -math.log(overlap(tau)) / (tau * (1 - tau))
            assert val == pytest.approx(
                srfe_equal_covariance([0.0], [shift], v), abs=1e-8)

    def test_scaling(self):
        # value scales with squared distance over variance
        assert srfe_equal_covariance([0.0, 0.0], [3.0, 4.0], 2.0) == pytest.approx(
            25.0 / 4.0, abs=1e-14)
        with pytest.raises(ValueError):
            srfe_equal_covariance([0.0], [1.0], 0.0)
