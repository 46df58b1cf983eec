"""Fit diagnostics on hand-constructed models where every metric has a known
value or a tight statistical band."""
import math

import numpy as np
import pytest

from srfe_lab.evaluation import N_ENTROPY, N_ESS, entropy_error, ess, \
    evaluate, mode_coverage, target_entropy
from srfe_lab.evaluation import test_log_lik as held_out_log_lik
from srfe_lab.gaussians import (BLOCK_ROWS, ContaminatedMixture,
                                DiagonalGaussian, GaussianMixture)

MEANS = np.array([[-3.0, 0.0], [3.0, 0.0], [0.0, 4.0]])
BENCH = GaussianMixture(means=MEANS, variance=0.5,
                        weights=np.array([0.3, 0.3, 0.4]))


def broad_model():
    # centered on the mixture mean, wide enough to reach every mode
    return DiagonalGaussian(mu=np.array([0.0, 1.6]),
                            log_sigma=np.log(np.array([3.0, 2.5])))


def narrow_model(mode):
    return DiagonalGaussian(mu=np.asarray(mode, dtype=float),
                            log_sigma=np.full(2, math.log(math.sqrt(0.5))))


class TestModeCoverage:
    def test_broad_model_covers_all(self):
        assert mode_coverage(broad_model(), BENCH) == 3

    def test_narrow_model_covers_one(self):
        for mode in MEANS:
            assert mode_coverage(narrow_model(mode), BENCH) == 1

    def test_two_mode_straddle(self):
        # between the two bottom modes, far from the top one
        q = DiagonalGaussian(mu=np.array([0.0, 0.0]),
                             log_sigma=np.log(np.array([3.0, 0.7])))
        assert mode_coverage(q, BENCH) == 2


class TestEss:
    def test_perfect_proposal(self):
        q = DiagonalGaussian(mu=np.array([0.5, -1.0]),
                             log_sigma=np.array([0.2, 0.1]))
        val = ess(q, q, 5000, np.random.default_rng(0))
        assert val == pytest.approx(5000.0, abs=1e-6)

    def test_known_gaussian_pair(self):
        # for q = N(0,1) proposal and p = N(mu, 1) target,
        # ESS/n -> exp(-mu^2) as n grows
        q = DiagonalGaussian(mu=np.zeros(1), log_sigma=np.zeros(1))
        p = DiagonalGaussian(mu=np.array([0.8]), log_sigma=np.zeros(1))
        n = 200_000
        val = ess(q, p, n, np.random.default_rng(1))
        assert val / n == pytest.approx(math.exp(-0.64), rel=0.05)

    def test_single_component_proposal_has_flat_weights(self):
        # inside one well-separated component p is a constant multiple of q,
        # so missing the other modes does not show up in ESS at all
        q = narrow_model(MEANS[0])
        val = ess(q, BENCH, 10000, np.random.default_rng(2))
        assert val > 0.99 * 10000

    def test_valley_proposal_collapses(self):
        # concentrated where the target is thin: rare huge weights
        q = DiagonalGaussian(mu=np.array([0.0, 1.0]),
                             log_sigma=np.full(2, math.log(0.6)))
        val = ess(q, BENCH, 10000, np.random.default_rng(2))
        assert val < 100.0

    @pytest.mark.filterwarnings("error")
    def test_no_draw_with_target_density(self):
        # bounded support far from q: every log weight is -inf, so there
        # is nothing to normalize, and no NaN or warning may come out
        class UnitSquare:
            def log_prob(self, x):
                inside = np.all((x >= 0.0) & (x <= 1.0), axis=1)
                return np.where(inside, 0.0, -np.inf)

        q = DiagonalGaussian(mu=np.full(2, 50.0), log_sigma=np.zeros(2))
        assert ess(q, UnitSquare(), 1000, np.random.default_rng(0)) == 0.0


class TestEntropyError:
    def test_matched_gaussian(self):
        q = DiagonalGaussian(mu=np.array([1.0, 2.0]),
                             log_sigma=np.array([0.3, -0.2]))
        err = entropy_error(q, target_entropy(q, 200_000,
                                              np.random.default_rng(3)))
        # MC noise only: sd of -log q is about 1, so the mean is tight
        assert err <= 0.02

    def test_too_narrow_model_penalized(self):
        err = entropy_error(narrow_model(MEANS[0]),
                            target_entropy(BENCH, 50_000,
                                           np.random.default_rng(4)))
        # the model misses the spread between modes but matches one
        # component's entropy; the gap is the mixture's extra spread
        assert 0.3 <= err <= 1.5


class TestTargetEntropy:
    TARGETS = {"mixture": BENCH,
               "w=0": ContaminatedMixture(base=BENCH, outlier_weight=0.0),
               "w=0.2": ContaminatedMixture(base=BENCH, outlier_weight=0.2),
               # the log densities go into the first coordinate's column,
               # which is the whole array at d = 1 and a strided view at 3
               "d=1": GaussianMixture(means=MEANS[:, :1], variance=0.5,
                                      weights=BENCH.weights),
               "d=3": GaussianMixture(means=np.hstack((MEANS, MEANS[:, :1])),
                                      variance=0.5, weights=BENCH.weights)}

    @pytest.mark.parametrize("n", [1, BLOCK_ROWS - 1, BLOCK_ROWS + 1,
                                   N_ENTROPY])
    @pytest.mark.parametrize("name", TARGETS)
    def test_blocked_mean_is_the_one_pass_mean(self, name, n):
        target = self.TARGETS[name]
        xs = target.sample(n, np.random.default_rng(5))
        one_pass = -float(np.mean(target.log_prob(xs)))
        assert target_entropy(target, n, np.random.default_rng(5)) == one_pass

    def test_holds_the_sample_and_one_block(self, traced_peak_mb):
        # the draws (1.53 MiB) and one block's log-density pass (about 0.19
        # MiB at BLOCK_ROWS // 4 rows) hold 1.72 MiB, so the sampler's own
        # peak sets it: 1.91 MiB for this target.  Blocks of BLOCK_ROWS
        # rows (a 0.56 MiB pass) held 2.09 MiB, a separate (n,) array of
        # log densities (0.76 MiB) 2.85 MiB, one pass over all 10^5 draws
        # about 8.4 MiB, and samplers that built their draws from (n, d)
        # temporaries 3.9 MiB
        target = self.TARGETS["w=0.2"]
        rng = np.random.default_rng(2)
        assert traced_peak_mb(lambda: target_entropy(
            target, N_ENTROPY, rng)) <= 1.95

    def test_a_read_only_sample_is_copied(self):
        class ReadOnlyDraws(GaussianMixture):
            def sample(self, n, rng):
                xs = super().sample(n, rng)
                xs.flags.writeable = False
                return xs

        target = ReadOnlyDraws(means=MEANS, variance=0.5,
                               weights=BENCH.weights)
        n = BLOCK_ROWS + 1
        assert target_entropy(target, n, np.random.default_rng(5)) == \
            target_entropy(BENCH, n, np.random.default_rng(5))

    def test_a_draw_off_the_support_is_an_error(self):
        # a draw where log p is -inf would make the estimate +inf
        class OffSupport(GaussianMixture):
            def log_prob(self, x):
                lp = super().log_prob(x)
                lp[0] = -np.inf
                return lp

        target = OffSupport(means=MEANS, variance=0.5, weights=BENCH.weights)
        with pytest.raises(FloatingPointError, match="inf"):
            target_entropy(target, 100, np.random.default_rng(5))


class TestTestLogLik:
    def test_self_likelihood_near_negative_entropy(self):
        q = DiagonalGaussian(mu=np.zeros(2), log_sigma=np.zeros(2))
        val = held_out_log_lik(q, q, 100_000, np.random.default_rng(5))
        assert val == pytest.approx(-q.entropy(), abs=0.02)

    def test_missing_modes_tanks_likelihood(self):
        val = held_out_log_lik(narrow_model(MEANS[0]), BENCH, 2000,
                           np.random.default_rng(6))
        assert val < -15.0


def bench_entropy(seed):
    """The target-entropy estimate evaluate(..., seed, ...) is handed."""
    return target_entropy(BENCH, N_ENTROPY, np.random.default_rng(seed + 2))


class TestEvaluate:
    def test_reproducible_and_complete(self):
        a = evaluate(broad_model(), BENCH, BENCH, 7, bench_entropy(7))
        b = evaluate(broad_model(), BENCH, BENCH, 7, bench_entropy(7))
        assert a == b
        assert a.mode_coverage == 3
        assert 0 < a.ess <= N_ESS
        assert np.isfinite(a.entropy_error)
        assert np.isfinite(a.test_log_lik)

    @pytest.mark.parametrize("metric", ["ess", "test_log_lik"])
    def test_a_non_finite_metric_is_an_error(self, metric):
        # a NaN log density on the ESS batch, or a held-out draw at infinity
        class Broken(GaussianMixture):
            def log_prob(self, x):
                lp = super().log_prob(x)
                if metric == "ess":
                    lp[0] = np.nan
                return lp

            def sample(self, n, rng):
                xs = super().sample(n, rng)
                if metric == "test_log_lik":
                    xs[0] = np.inf
                return xs

        target = Broken(means=MEANS, variance=0.5, weights=BENCH.weights)
        with pytest.raises(FloatingPointError, match=metric):
            evaluate(broad_model(), target, BENCH, 7, math.nan)

    def test_seed_offsets_decouple_metrics(self):
        a = evaluate(broad_model(), BENCH, BENCH, 7, bench_entropy(7))
        c = evaluate(broad_model(), BENCH, BENCH, 8, bench_entropy(8))
        assert a.ess != c.ess
        assert a.test_log_lik != c.test_log_lik
