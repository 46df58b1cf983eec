"""Optimizer arithmetic frozen against hand-computed steps, schedule shapes,
and determinism of the fitting loop, alone and in lockstep."""
import math

import numpy as np
import pytest

from srfe_lab.gaussians import (ContaminatedMixture, DiagonalGaussian,
                                GaussianMixture)
from srfe_lab.training import (Adam, TauSchedule, TrainConfig, TrainResult,
                               train, train_lockstep)

BENCH = GaussianMixture(means=np.array([[-3.0, 0.0], [3.0, 0.0], [0.0, 4.0]]),
                        variance=0.5, weights=np.array([0.3, 0.3, 0.4]))


class NanScoreTarget:
    """Finite reverse-KL loss, non-finite gradient."""
    dim = 2

    def log_prob(self, x):
        return np.zeros(np.asarray(x).shape[0])

    def score_x(self, x):
        return np.full(np.asarray(x).shape, np.nan)


class TestAdam:
    def test_first_step_frozen(self):
        # with bias correction the first update is lr * g/(|g| + eps*sqrt(1-b2))
        opt = Adam(1)
        out = opt.step(np.zeros(1), np.array([0.3]))
        assert out[0] == pytest.approx(-0.049999998333333389, abs=1e-16)
        opt = Adam(1)
        out = opt.step(np.zeros(1), np.array([-0.2]))
        assert out[0] == pytest.approx(0.049999997500000125, abs=1e-16)

    def test_two_steps_frozen(self):
        opt = Adam(1)
        p = opt.step(np.zeros(1), np.array([0.3]))
        p = opt.step(p, np.array([0.3]))
        assert p[0] == pytest.approx(-0.099999996666666778, abs=1e-15)

    def test_componentwise_and_sign(self):
        opt = Adam(2, lr=0.01)
        p = opt.step(np.array([1.0, -1.0]), np.array([5.0, -5.0]))
        # step size is bounded by lr regardless of gradient scale
        assert p[0] == pytest.approx(1.0 - 0.01, abs=1e-9)
        assert p[1] == pytest.approx(-1.0 + 0.01, abs=1e-9)

    def test_rejects_non_finite_gradient(self):
        opt = Adam(1)
        with pytest.raises(ValueError):
            opt.step(np.zeros(1), np.array([np.nan]))


class TestTauSchedule:
    def test_fixed(self):
        s = TauSchedule.fixed(0.35)
        assert s.tau_at(1, 100) == 0.35
        assert s.tau_at(100, 100) == 0.35
        assert s.describe() == "fixed_0.35"

    def test_linear_hits_endpoints(self):
        s = TauSchedule.linear(0.3, 0.9)
        assert s.tau_at(1, 2000) == 0.3
        assert s.tau_at(2000, 2000) == 0.9
        mid = s.tau_at(1000, 1999)
        assert mid == pytest.approx(0.6, abs=1e-12)
        assert s.describe() == "linear_0.3_to_0.9"

    def test_linear_decreasing(self):
        s = TauSchedule.linear(0.9, 0.3)
        assert s.tau_at(1, 10) == 0.9
        assert s.tau_at(10, 10) == 0.3

    def test_stepwise_segments(self):
        s = TauSchedule.stepwise()
        assert s.tau_at(1, 2000) == 0.3
        assert s.tau_at(500, 2000) == 0.3
        assert s.tau_at(501, 2000) == 0.5
        assert s.tau_at(1001, 2000) == 0.7
        assert s.tau_at(2000, 2000) == 0.9
        assert s.describe() == "stepwise_0.3_0.5_0.7_0.9"

    def test_single_iteration_run(self):
        assert TauSchedule.linear(0.2, 0.8).tau_at(1, 1) == 0.2
        assert TauSchedule.stepwise((0.4,)).tau_at(1, 1) == 0.4

    def test_domain_checks(self):
        s = TauSchedule.fixed(0.5)
        with pytest.raises(ValueError):
            s.tau_at(0, 10)
        with pytest.raises(ValueError):
            s.tau_at(11, 10)
        with pytest.raises(ValueError):
            TauSchedule(kind="cosine")

    @pytest.mark.parametrize("build", [
        lambda: TauSchedule.fixed(1.5),
        lambda: TauSchedule.fixed(0.0),
        lambda: TauSchedule.linear(0.5, 1.0),
        lambda: TauSchedule.linear(-0.1, 0.5),
        lambda: TauSchedule.stepwise((0.5, math.nan)),
        lambda: TauSchedule.stepwise((0.3, 1.0, 0.7)),
    ], ids=["fixed-1.5", "fixed-0", "linear-end-1", "linear-start-negative",
            "stepwise-nan", "stepwise-1"])
    def test_rejects_tau_outside_open_interval_when_built(self, build):
        with pytest.raises(ValueError, match=r"tau must lie in \(0, 1\)"):
            build()


class TestTrain:
    def small_cfg(self, **kw):
        base = dict(objective="srfe", schedule=TauSchedule.fixed(0.5),
                    iterations=20, batch_size=200, seed=5)
        base.update(kw)
        return TrainConfig(**base)

    def test_deterministic_per_seed(self):
        a = train(BENCH, self.small_cfg())
        b = train(BENCH, self.small_cfg())
        np.testing.assert_array_equal(a.loss_history, b.loss_history)
        np.testing.assert_array_equal(a.model.mu, b.model.mu)
        np.testing.assert_array_equal(a.model.log_sigma, b.model.log_sigma)
        c = train(BENCH, self.small_cfg(seed=6))
        assert not np.array_equal(a.loss_history, c.loss_history)

    def test_loss_decreases_on_easy_target(self):
        target = DiagonalGaussian(mu=np.array([1.0, -1.0]),
                                  log_sigma=np.array([0.2, -0.1]))
        res = train(target, self.small_cfg(iterations=300, batch_size=500))
        assert res.loss_history[-50:].mean() < res.loss_history[:50].mean()
        np.testing.assert_allclose(res.model.mu, target.mu, atol=0.1)

    def test_history_shape_and_clamp_count(self):
        res = train(BENCH, self.small_cfg(iterations=30))
        assert isinstance(res, TrainResult)
        assert res.loss_history.shape == (30,)
        assert 0 <= res.clamp_count <= 30

    def test_all_objectives_run(self):
        for obj in ("srfe", "forward_kl", "reverse_kl"):
            res = train(BENCH, self.small_cfg(objective=obj, iterations=10))
            assert np.all(np.isfinite(res.loss_history))

    def test_non_finite_loss_raises(self):
        class BrokenTarget:
            dim = 2

            def log_prob(self, x):
                return np.full(np.asarray(x).shape[0], np.nan)

            def score_x(self, x):
                return np.zeros_like(np.asarray(x))

            def sample(self, n, rng):
                return rng.standard_normal((n, 2))

        with pytest.raises(RuntimeError, match="non-finite loss at step 1"):
            train(BrokenTarget(), self.small_cfg(objective="reverse_kl"))

    def test_non_finite_gradient_raises(self):
        with pytest.raises(RuntimeError,
                           match="non-finite gradient at step 1"):
            train(NanScoreTarget(), self.small_cfg(objective="reverse_kl"))

    def test_lockstep_matches_solo_train(self):
        contaminated = ContaminatedMixture(base=BENCH, outlier_weight=0.2)
        cfg = self.small_cfg
        jobs = [
            (BENCH, cfg(iterations=12)),
            (BENCH, cfg(schedule=TauSchedule.fixed(0.9), iterations=7)),
            (BENCH, cfg(objective="reverse_kl", iterations=10)),
            # fails at step 1 on the stream the cells around it read
            (NanScoreTarget(), cfg(objective="reverse_kl", iterations=10)),
            (contaminated, cfg(schedule=TauSchedule.fixed(0.99))),
            (BENCH, cfg(objective="forward_kl", iterations=9)),
            (BENCH, cfg(objective="forward_kl", iterations=9, seed=6)),
            (BENCH, cfg(schedule=TauSchedule.stepwise(), seed=6)),
            (BENCH, cfg(schedule=TauSchedule.linear(0.9, 0.3), seed=6,
                        batch_size=100, iterations=5)),
            (BENCH, cfg(objective="reverse_kl", seed=6, iterations=15)),
        ]
        outcomes = train_lockstep(jobs)
        assert len(outcomes) == len(jobs)
        for (target, job_cfg), outcome in zip(jobs, outcomes):
            if isinstance(target, NanScoreTarget):
                with pytest.raises(RuntimeError) as solo_error:
                    train(target, job_cfg)
                assert type(outcome) is RuntimeError
                assert str(outcome) == str(solo_error.value) == \
                    "non-finite gradient at step 1"
                continue
            solo = train(target, job_cfg)
            assert outcome.loss_history.shape == (job_cfg.iterations,)
            np.testing.assert_array_equal(outcome.loss_history,
                                          solo.loss_history)
            np.testing.assert_array_equal(outcome.model.mu, solo.model.mu)
            np.testing.assert_array_equal(outcome.model.log_sigma,
                                          solo.model.log_sigma)
            assert outcome.clamp_count == solo.clamp_count

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(objective="hellinger")
        with pytest.raises(ValueError):
            TrainConfig(iterations=0)
