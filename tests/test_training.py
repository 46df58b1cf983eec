"""Optimizer arithmetic frozen against hand-computed steps, schedule shapes,
and determinism of the fitting loop, alone, in lockstep stacks (against the
per-job loop they replace) and in forked shares."""
import json
import math
import os
import platform
import select
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from srfe_lab import experiments, training
from srfe_lab.estimators import (forward_kl_grad, forward_kl_loss,
                                 reverse_kl_grad, reverse_kl_loss,
                                 srfe_mc_step)
from srfe_lab.gaussians import (ContaminatedMixture, DiagonalGaussian,
                                GaussianMixture)
from srfe_lab.training import (Adam, TauSchedule, TrainConfig, TrainResult,
                               train)

BENCH = GaussianMixture(means=np.array([[-3.0, 0.0], [3.0, 0.0], [0.0, 4.0]]),
                        variance=0.5, weights=np.array([0.3, 0.3, 0.4]))


class NanScoreTarget:
    """Finite reverse-KL loss, non-finite gradient."""
    dim = 2

    def log_prob(self, x):
        return np.zeros(np.asarray(x).shape[0])

    def log_prob_and_score(self, x):
        return self.log_prob(x), np.full(np.asarray(x).shape, np.nan)


class RejectingTarget:
    """Raises an exception the runner does not turn into a failed job."""
    dim = 2

    def log_prob_and_score(self, x):
        raise ValueError("target rejects the batch")


class ExitingTarget:
    """Ends the process that steps it, as a crash would."""
    dim = 2

    def log_prob_and_score(self, x):
        os._exit(3)


class TwoArgumentError(RuntimeError):
    """A RuntimeError whose constructor does not take its own args back, so
    pickle cannot rebuild it."""

    def __init__(self, what, step):
        super().__init__(f"{what} gave up at pass {step}")


class TwoArgumentValueError(ValueError):
    """The same for an exception the runner does not turn into a failed
    job."""

    def __init__(self, what, step):
        super().__init__(f"{what} rejects pass {step}")


class FailingTarget:
    """BENCH until its pass number fail_at, which raises exc."""

    def __init__(self, fail_at, exc):
        self.dim, self.calls, self.fail_at, self.exc = 2, 0, fail_at, exc

    def _count(self):
        self.calls += 1
        if self.calls == self.fail_at:
            raise self.exc

    def log_prob(self, x):
        self._count()
        return BENCH.log_prob(x)

    def log_prob_and_score(self, x):
        self._count()
        return BENCH.log_prob_and_score(x)

    def sample(self, n, rng):
        return BENCH.sample(n, rng)


class FailingSampler(FailingTarget):
    """BENCH whose sample number fail_at raises exc."""

    def log_prob(self, x):
        return BENCH.log_prob(x)

    def sample(self, n, rng):
        self._count()
        return BENCH.sample(n, rng)


def per_job_fit(target, cfg):
    """One job fitted alone, one one-row estimator call per iteration: the
    loop the stacks replace, kept here as their reference."""
    rng = np.random.default_rng(cfg.seed)
    theta = np.zeros((2, target.dim))
    opt = Adam(theta.shape, lr=cfg.learning_rate)
    losses, clamps = np.empty(cfg.iterations), 0
    for t in range(1, cfg.iterations + 1):
        q = DiagonalGaussian(*theta)
        if cfg.objective == "forward_kl":
            xs = target.sample(cfg.batch_size, rng)
            loss, grad = forward_kl_loss(q, target, xs), forward_kl_grad(q, xs)
        else:
            eps = rng.standard_normal((cfg.batch_size, target.dim))
            if cfg.objective == "srfe":
                tau = cfg.schedule.tau_at(t, cfg.iterations)
                report, grad = srfe_mc_step(q, target, tau, eps)
                loss, clamps = report.loss, clamps + report.clamped
            else:
                loss = reverse_kl_loss(q, target, eps)
                grad = reverse_kl_grad(q, target, eps)
        if not np.isfinite(loss):
            raise RuntimeError(f"non-finite loss at step {t}")
        d_theta = np.array((grad.d_mu, grad.d_log_sigma))
        if not np.all(np.isfinite(d_theta)):
            raise RuntimeError(f"non-finite gradient at step {t}")
        losses[t - 1] = loss
        theta = opt.step(theta, d_theta)
        if not np.all(np.isfinite(theta)):
            raise RuntimeError(f"non-finite parameters at step {t}")
    return TrainResult(model=DiagonalGaussian(*theta), loss_history=losses,
                       clamp_count=clamps)


def assert_same_outcome(got, want):
    assert type(got) is type(want)
    if isinstance(want, Exception):
        assert str(got) == str(want)
        return
    np.testing.assert_array_equal(got.loss_history, want.loss_history)
    np.testing.assert_array_equal(got.model.mu, want.model.mu)
    np.testing.assert_array_equal(got.model.log_sigma, want.model.log_sigma)
    assert got.clamp_count == want.clamp_count


def per_job_outcome(target, cfg):
    try:
        return per_job_fit(target, cfg)
    except RuntimeError as exc:
        return exc


@pytest.fixture
def forks(monkeypatch):
    """Pins the runner to two CPUs and lists the pid of every child that
    os.fork makes."""
    pids = []
    real_fork = os.fork

    def recording_fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(training, "_cpu_count", lambda: 2)
    monkeypatch.setattr(os, "fork", recording_fork)
    return pids


def assert_same_outcomes(alone, shared):
    """The outcomes of one share and of several agree bit for bit."""
    assert len(shared) == len(alone)
    for a, b in zip(alone, shared):
        assert type(a) is type(b)
        if isinstance(a, Exception):
            assert str(a) == str(b) == "non-finite gradient at step 1"
            continue
        for x, y in ((a.loss_history, b.loss_history),
                     (a.model.mu, b.model.mu),
                     (a.model.log_sigma, b.model.log_sigma)):
            np.testing.assert_array_equal(x, y)
            assert x.flags.writeable == y.flags.writeable
        assert a.clamp_count == b.clamp_count


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def fit_jobs(jobs):
    """Every job's outcome, in job order, fitted through _map_shares."""
    done = training._map_shares(jobs, lambda s, n, f: f)
    return [done[i] for i in range(len(jobs))]


def share_jobs(jobs, shares):
    """The job indices of each share of _split, whose stacks they form, in
    job order."""
    return [sorted(i for rows in share.values() for i in rows)
            for share in training._split(jobs, shares)]


class TestAdam:
    def test_first_step_frozen(self):
        # with bias correction the first update is lr * g/(|g| + eps*sqrt(1-b2))
        opt = Adam(1, lr=0.05)
        out = opt.step(np.zeros(1), np.array([0.3]))
        assert out[0] == pytest.approx(-0.049999998333333389, abs=1e-16)
        opt = Adam(1, lr=0.05)
        out = opt.step(np.zeros(1), np.array([-0.2]))
        assert out[0] == pytest.approx(0.049999997500000125, abs=1e-16)

    def test_two_steps_frozen(self):
        opt = Adam(1, lr=0.05)
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
        opt = Adam(1, lr=0.05)
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
            TauSchedule("cosine", (0.5,))

    def test_fixed_is_one_level_stepwise(self):
        fixed, step = TauSchedule.fixed(0.35), TauSchedule.stepwise((0.35,))
        assert fixed == TauSchedule("fixed", (0.35,))
        assert fixed.levels == step.levels
        assert [fixed.tau_at(t, 7) for t in range(1, 8)] == \
            [step.tau_at(t, 7) for t in range(1, 8)] == [0.35] * 7

    @pytest.mark.parametrize("kind, levels", [
        ("fixed", (0.2, 0.3)), ("fixed", ()), ("linear", (0.3,)),
        ("linear", (0.3, 0.5, 0.7)), ("stepwise", ())])
    def test_rejects_wrong_level_count(self, kind, levels):
        with pytest.raises(ValueError, match=f"a {kind} schedule cannot "
                                             f"have {len(levels)} levels"):
            TauSchedule(kind, levels)

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

    @pytest.mark.parametrize("objective", ["srfe", "forward_kl",
                                           "reverse_kl"])
    def test_every_objective_runs_on_the_four_member_protocol(self,
                                                              objective):
        class Protocol:
            """dim, log_prob, log_prob_and_score and sample, nothing else."""
            dim = BENCH.dim
            log_prob = staticmethod(BENCH.log_prob)
            log_prob_and_score = staticmethod(BENCH.log_prob_and_score)
            sample = staticmethod(BENCH.sample)

        cfg = self.small_cfg(objective=objective, iterations=10)
        got, want = train(Protocol(), cfg), train(BENCH, cfg)
        np.testing.assert_array_equal(got.loss_history, want.loss_history)
        np.testing.assert_array_equal(got.model.mu, want.model.mu)
        np.testing.assert_array_equal(got.model.log_sigma,
                                      want.model.log_sigma)

    def test_non_finite_loss_raises(self):
        class BrokenTarget:
            dim = 2

            def log_prob(self, x):
                return np.full(np.asarray(x).shape[0], np.nan)

            def log_prob_and_score(self, x):
                return self.log_prob(x), np.zeros_like(np.asarray(x))

            def sample(self, n, rng):
                return rng.standard_normal((n, 2))

        with pytest.raises(RuntimeError, match="non-finite loss at step 1"):
            train(BrokenTarget(), self.small_cfg(objective="reverse_kl"))

    def test_non_finite_gradient_raises(self):
        with pytest.raises(RuntimeError,
                           match="non-finite gradient at step 1"):
            train(NanScoreTarget(), self.small_cfg(objective="reverse_kl"))

    def lockstep_jobs(self):
        contaminated = ContaminatedMixture(base=BENCH, outlier_weight=0.2)
        cfg = self.small_cfg
        return [
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

    def test_lockstep_matches_solo_train(self):
        jobs = self.lockstep_jobs()
        outcomes = fit_jobs(jobs)
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

    def test_stacks_match_the_per_job_loop(self, monkeypatch):
        # mixed stacks whose rows finish at different iterations, a failing
        # row among them, and rows that clamp
        monkeypatch.setattr(training, "_cpu_count", lambda: 1)
        jobs = self.lockstep_jobs()
        outcomes = fit_jobs(jobs)
        assert any(o.clamp_count for o in outcomes if isinstance(o, TrainResult))
        for (target, job_cfg), outcome in zip(jobs, outcomes):
            assert_same_outcome(outcome, per_job_outcome(target, job_cfg))

    @pytest.mark.parametrize("exc", [RuntimeError("target gave up"),
                                     FloatingPointError("overflow")],
                             ids=["RuntimeError", "FloatingPointError"])
    def test_target_error_ends_every_job_of_its_pass(self, monkeypatch, exc):
        monkeypatch.setattr(training, "_cpu_count", lambda: 1)
        cfg = self.small_cfg
        failing, failing_samples = FailingTarget(3, exc), FailingTarget(4, exc)
        contaminated = ContaminatedMixture(base=BENCH, outlier_weight=0.2)
        # one eps stack holding three targets, and a forward-KL stack
        jobs = [
            (BENCH, cfg(iterations=6)),
            (failing, cfg(schedule=TauSchedule.fixed(0.9))),
            (contaminated, cfg(schedule=TauSchedule.fixed(0.99))),
            (failing, cfg(objective="reverse_kl")),
            (BENCH, cfg(objective="reverse_kl", iterations=8)),
            (failing_samples, cfg(objective="forward_kl", iterations=6)),
            (failing_samples, cfg(objective="forward_kl")),
            (BENCH, cfg(objective="forward_kl", iterations=5)),
        ]
        outcomes = fit_jobs(jobs)
        # the pass of step 3 raised once, for both of its jobs
        assert outcomes[1] is outcomes[3] is exc
        assert outcomes[5] is outcomes[6] is exc
        assert failing.calls == 3 and failing_samples.calls == 4
        for k in (0, 2, 4, 7):
            assert_same_outcome(outcomes[k], per_job_outcome(*jobs[k]))

    def test_non_finite_row_leaves_its_stack(self, monkeypatch):
        monkeypatch.setattr(training, "_cpu_count", lambda: 1)
        cfg = self.small_cfg
        jobs = [(BENCH, cfg(objective="reverse_kl")),
                (NanScoreTarget(), cfg(objective="reverse_kl")),
                (BENCH, cfg(iterations=9))]
        outcomes = fit_jobs(jobs)
        assert type(outcomes[1]) is RuntimeError
        assert str(outcomes[1]) == "non-finite gradient at step 1"
        for k in (0, 2):
            assert_same_outcome(outcomes[k], per_job_outcome(*jobs[k]))

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("cpus", [1, 2])
    def test_overflowing_step_ends_its_row(self, monkeypatch, forks, cpus):
        monkeypatch.setattr(training, "_cpu_count", lambda: cpus)
        cfg = self.small_cfg
        # a rate the config check accepts whose first Adam step overflows,
        # mid-run and at the job's last step, beside rows that step on
        jobs = [(BENCH, cfg(iterations=6)),
                (BENCH, cfg(learning_rate=1e308)),
                (BENCH, cfg(objective="forward_kl", learning_rate=1e308,
                            iterations=1)),
                (BENCH, cfg(objective="reverse_kl", iterations=5)),
                (BENCH, cfg(objective="reverse_kl", learning_rate=1e308,
                            iterations=1))]
        outcomes = fit_jobs(jobs)
        assert len(forks) == cpus - 1
        for k in (1, 2, 4):
            assert type(outcomes[k]) is RuntimeError
            assert str(outcomes[k]) == "non-finite parameters at step 1"
        for got, job in zip(outcomes, jobs):
            assert_same_outcome(got, per_job_outcome(*job))
        assert_no_child_left()

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("failing_type", [FailingSampler, FailingTarget],
                             ids=["sample", "log_prob"])
    def test_sampler_error_ends_every_job_of_its_stack(self, monkeypatch,
                                                       forks, failing_type,
                                                       cpus):
        monkeypatch.setattr(training, "_cpu_count", lambda: cpus)
        cfg = self.small_cfg
        exc = RuntimeError("target gave up")
        # the third target.sample, or the third target.log_prob, raises
        failing = failing_type(3, exc)
        # jobs 1 and 3 read one stream; on two CPUs they are share 1's
        jobs = [(BENCH, cfg(iterations=6)),
                (failing, cfg(objective="forward_kl")),
                (BENCH, cfg(objective="forward_kl", iterations=5)),
                (failing, cfg(objective="forward_kl", iterations=8))]
        assert share_jobs(jobs, 2) == [[0, 2], [1, 3]]
        outcomes = fit_jobs(jobs)
        assert len(forks) == cpus - 1
        for k in (1, 3):
            assert type(outcomes[k]) is RuntimeError
            assert str(outcomes[k]) == "target gave up"
        if cpus == 1:
            assert outcomes[1] is outcomes[3] is exc and failing.calls == 3
        for k in (0, 2):
            assert_same_outcome(outcomes[k], per_job_outcome(*jobs[k]))
        assert_no_child_left()

    def test_row_failing_at_its_last_step_ends_with_its_error(self,
                                                              monkeypatch):
        monkeypatch.setattr(training, "_cpu_count", lambda: 1)
        cfg = self.small_cfg
        exc = RuntimeError("target gave up")
        # the pass of job 1's last step raises; job 2 is non-finite at its
        # only step
        jobs = [(BENCH, cfg(iterations=6)),
                (FailingTarget(4, exc), cfg(iterations=4)),
                (NanScoreTarget(), cfg(objective="reverse_kl", iterations=1)),
                (BENCH, cfg(objective="reverse_kl", iterations=4))]
        outcomes = fit_jobs(jobs)
        assert outcomes[1] is exc
        assert type(outcomes[2]) is RuntimeError
        assert str(outcomes[2]) == "non-finite gradient at step 1"
        for k in (0, 3):
            assert_same_outcome(outcomes[k], per_job_outcome(*jobs[k]))

    def test_stack_whose_rows_all_fail_ends_alone(self, monkeypatch):
        monkeypatch.setattr(training, "_cpu_count", lambda: 1)
        cfg = self.small_cfg

        def jobs():
            # seed 6's stack loses both its rows at step 1, one to its
            # target's error and one to a non-finite gradient; seed 5's
            # stack steps on
            return [(BENCH, cfg(iterations=6)),
                    (FailingTarget(1, RuntimeError("target gave up")),
                     cfg(seed=6)),
                    (BENCH, cfg(objective="reverse_kl", iterations=7)),
                    (NanScoreTarget(), cfg(objective="reverse_kl", seed=6))]

        outcomes = fit_jobs(jobs())
        for got, job in zip(outcomes, jobs()):
            assert_same_outcome(got, per_job_outcome(*job))
        assert all(isinstance(o, TrainResult) for o in outcomes[::2])
        assert all(isinstance(o, RuntimeError) for o in outcomes[1::2])

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_shares_match_one_share(self, monkeypatch, forks, cpus):
        jobs = self.lockstep_jobs()
        monkeypatch.setattr(training, "_cpu_count", lambda: 1)
        alone = fit_jobs(jobs)
        assert forks == []
        monkeypatch.setattr(training, "_cpu_count", lambda: cpus)
        shared = fit_jobs(jobs)
        assert len(forks) == cpus - 1
        assert_same_outcomes(alone, shared)
        assert_no_child_left()

    def exp1_jobs(self):
        """A forward-KL stack beside one q-side stream, as exp1 has."""
        cfg = self.small_cfg
        jobs = [(BENCH, cfg(objective="forward_kl")),
                (BENCH, cfg(objective="reverse_kl"))]
        return jobs + [(BENCH, cfg(schedule=TauSchedule.fixed(tau)))
                       for tau in (0.1, 0.3, 0.5, 0.7, 0.9)]

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_exp1_shaped_shares_match_one_share(self, monkeypatch, forks,
                                                cpus):
        jobs = self.exp1_jobs()
        monkeypatch.setattr(training, "_cpu_count", lambda: 1)
        alone = fit_jobs(jobs)
        monkeypatch.setattr(training, "_cpu_count", lambda: cpus)
        shared = fit_jobs(jobs)
        assert len(forks) == cpus - 1
        assert all(isinstance(o, TrainResult) for o in alone)
        assert_same_outcomes(alone, shared)
        assert_no_child_left()

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_each_share_steps_its_split_stacks(self, monkeypatch, forks,
                                               tmp_path, cpus):
        # a forked share's stacks are built in the child, so every process
        # appends the rows each _Stack receives to one file
        log = tmp_path / "stacks.jsonl"
        real_init = training._Stack.__init__

        def recording_init(stack, jobs, rows):
            with open(log, "a", encoding="utf-8") as fh:
                fh.write(json.dumps([os.getpid(), list(rows)]) + "\n")
            real_init(stack, jobs, rows)

        monkeypatch.setattr(training._Stack, "__init__", recording_init)
        monkeypatch.setattr(training, "_cpu_count", lambda: cpus)
        jobs = self.exp1_jobs()
        outcomes = fit_jobs(jobs)
        assert all(isinstance(o, TrainResult) for o in outcomes)
        assert len(forks) == cpus - 1
        stacks = {}
        for line in log.read_text(encoding="utf-8").splitlines():
            pid, rows = json.loads(line)
            stacks.setdefault(pid, []).append(rows)
        split = training._split(jobs, cpus)
        assert stacks == {pid: list(share.values())
                          for pid, share in zip([os.getpid(), *forks], split)}
        assert_no_child_left()

    def test_other_exception_in_forked_share_propagates(self, forks):
        cfg = self.small_cfg
        # job 1 is share 1, fitted in the child
        jobs = [(BENCH, cfg()), (RejectingTarget(), cfg()), (BENCH, cfg())]
        assert share_jobs(jobs, 2) == [[0, 2], [1]]
        with pytest.raises(ValueError) as error:
            fit_jobs(jobs)
        assert type(error.value) is ValueError
        assert str(error.value) == "target rejects the batch"
        assert len(forks) == 1
        assert_no_child_left()

    def test_unpicklable_job_error_fails_each_job_alone(self, monkeypatch,
                                                         forks):
        cfg = self.small_cfg

        def jobs():
            # one failing target per job; jobs 1 and 3 are share 1's
            return [(FailingTarget(3, TwoArgumentError("target", 3)),
                     cfg(seed=k)) for k in range(4)]

        assert share_jobs(jobs(), 2) == [[0, 2], [1, 3]]
        monkeypatch.setattr(training, "_cpu_count", lambda: 1)
        alone = fit_jobs(jobs())
        monkeypatch.setattr(training, "_cpu_count", lambda: 2)
        shared = fit_jobs(jobs())
        assert len(forks) == 1
        assert all(type(o) is TwoArgumentError for o in alone)
        assert all(str(o) == "target gave up at pass 3" for o in alone)
        for a, b in zip(alone[0::2], shared[0::2]):  # share 0, this process
            assert type(b) is TwoArgumentError and str(b) == str(a)
        for a, b in zip(alone[1::2], shared[1::2]):  # share 1, forked
            assert type(b) is RuntimeError
            assert str(b) == f"TwoArgumentError: {a}"
        assert_no_child_left()

    def test_unpicklable_raised_error_propagates_named(self, forks):
        cfg = self.small_cfg

        class Rejecting(RejectingTarget):
            def log_prob_and_score(self, x):
                raise TwoArgumentValueError("target", 1)

        jobs = [(BENCH, cfg()), (Rejecting(), cfg()), (BENCH, cfg())]
        with pytest.raises(RuntimeError) as error:
            fit_jobs(jobs)
        assert type(error.value) is RuntimeError
        assert str(error.value) == \
            "TwoArgumentValueError: target rejects pass 1"
        assert len(forks) == 1
        assert_no_child_left()

    def test_forked_share_that_dies_is_an_error(self, forks):
        cfg = self.small_cfg
        jobs = [(BENCH, cfg()), (ExitingTarget(), cfg())]
        with pytest.raises(ChildProcessError,
                           match="^training share 1 exited with status 3$"):
            fit_jobs(jobs)
        assert len(forks) == 1
        assert_no_child_left()

    def test_second_thread_keeps_every_step_in_process(self, monkeypatch,
                                                       forks):
        steps = []
        real_step = training._Stack.step

        def recording_step(stack, t):
            steps.extend((os.getpid(), t) for _ in stack.jobs)
            return real_step(stack, t)

        monkeypatch.setattr(training._Stack, "step", recording_step)
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:
            outcomes = fit_jobs([(BENCH, self.small_cfg(iterations=4))
                                       for _ in range(3)])
        finally:
            release.set()
            other.join(timeout=10)
        assert not other.is_alive()
        assert forks == []
        assert all(isinstance(o, TrainResult) for o in outcomes)
        assert steps == [(os.getpid(), t) for t in range(1, 5)
                         for _ in range(3)]

    @pytest.mark.skipif(not os.path.isdir("/proc/self"),
                        reason="reads process states from /proc")
    def test_forked_share_stops_when_its_parent_dies(self):
        # a parent that fits a long share and prints its child's pid
        script = (
            "import os, sys\n"
            "from srfe_lab import training\n"
            "from srfe_lab.experiments import benchmark_target\n"
            "real_fork = os.fork\n"
            "def fork():\n"
            "    pid = real_fork()\n"
            "    if pid:\n"
            "        print(pid, flush=True)\n"
            "    return pid\n"
            "os.fork = fork\n"
            "training._cpu_count = lambda: 2\n"
            "cfg = training.TrainConfig(iterations=10**6, batch_size=100)\n"
            "training._map_shares([(benchmark_target(), cfg)] * 2,\n"
            "                     lambda s, n, f: f)\n")
        src = str(Path(training.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.Popen([sys.executable, "-c", script], env=env,
                                stdout=subprocess.PIPE, text=True)
        try:
            # the runner forks at once; wait no longer if it never does
            ready, _, _ = select.select([proc.stdout], [], [], 30)
            assert ready, "the runner made no child"
            child = int(proc.stdout.readline())
        finally:
            proc.kill()
            proc.wait(timeout=30)
            proc.stdout.close()

        def running():
            try:
                with open(f"/proc/{child}/stat") as fh:
                    state = fh.read().rsplit(")", 1)[1].split()[0]
            except FileNotFoundError:
                return False
            return state not in ("Z", "X")  # a zombie has stopped

        deadline = time.monotonic() + 30
        while running() and time.monotonic() < deadline:
            time.sleep(0.05)
        alive = running()
        if alive:
            os.kill(child, signal.SIGKILL)
        assert not alive

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(objective="hellinger")
        with pytest.raises(ValueError):
            TrainConfig(iterations=0)


def sweep_jobs(run, monkeypatch, tmp_path):
    """The (target, TrainConfig) jobs a sweep at its default config hands
    _map_shares."""
    class Handed(Exception):
        pass

    def hand_over(jobs, fn):
        raise Handed(list(jobs))

    monkeypatch.setattr(experiments, "_map_shares", hand_over)
    with pytest.raises(Handed) as handed:
        run(experiments.RunConfig(out_dir=str(tmp_path)))
    return handed.value.args[0]


class TestShares:
    def test_exp1_puts_forward_kl_with_two_q_side_jobs(self, monkeypatch,
                                                        tmp_path):
        jobs = sweep_jobs(experiments.run_exp1, monkeypatch, tmp_path)
        split = share_jobs(jobs, 2)
        # forward KL, srfe 0.3 and 0.7 / reverse KL, srfe 0.1, 0.5 and 0.9
        assert split == [[0, 3, 5], [1, 2, 4, 6]]
        assert [jobs[i][1].objective for i in split[0]] == [
            "forward_kl", "srfe", "srfe"]

    @pytest.mark.parametrize("run", ["run_exp3", "run_exp4"])
    def test_one_stream_sweeps_alternate(self, monkeypatch, tmp_path, run):
        jobs = sweep_jobs(getattr(experiments, run), monkeypatch, tmp_path)
        n = len(jobs)
        assert share_jobs(jobs, 2) == [list(range(0, n, 2)),
                                       list(range(1, n, 2))]

    def test_exp4_share_0_steps_in_a_small_working_set(
            self, monkeypatch, tmp_path, traced_peak_mb):
        jobs = sweep_jobs(experiments.run_exp4, monkeypatch, tmp_path)
        (rows,) = training._split(jobs, 2)[0].values()
        assert len(rows) == 6 and len({id(jobs[i][0]) for i in rows}) == 4
        assert {jobs[i][1].batch_size for i in rows} == {5000}
        training._Stack(jobs, rows).step(1)  # first calls' caches untraced
        stack = training._Stack(jobs, rows)
        # the step holds eps, x and the score (d, J, n) and log q and r (J,
        # n), 1.45 MiB in all; x and log q are dropped before the gradient,
        # whose (J, n) temporaries fit under the largest target pass (two
        # rows, the K x 10^4 component terms and their pulls, 0.77 MiB).
        # The gradient's two (d, J, n) buffers beside a live x and log q
        # held 2.37 MiB.
        assert traced_peak_mb(lambda: stack.step(1)) <= 2.25

    def test_exp2_shares_are_even(self, monkeypatch, tmp_path):
        jobs = sweep_jobs(experiments.run_exp2, monkeypatch, tmp_path)
        assert [len(share) for share in share_jobs(jobs, 2)] == [14, 13]

    @pytest.mark.parametrize("shares", [1, 2, 3, 7])
    def test_every_job_in_one_share_in_order(self, shares):
        cfg = TrainConfig(iterations=3, batch_size=10)
        jobs = [(BENCH, cfg), (BENCH, TrainConfig(objective="forward_kl")),
                (BENCH, TrainConfig(seed=4))] * 3
        split = training._split(jobs, shares)
        assert sorted(i for share in split for rows in share.values()
                      for i in rows) == list(range(9))
        for share in split:
            # stacks in the order of their first job, each in job order and
            # of one noise stream
            assert share and [rows[0] for rows in share.values()] == \
                sorted(rows[0] for rows in share.values())
            for key, rows in share.items():
                assert rows == sorted(rows)
                assert {training._stream(*jobs[i]) for i in rows} == {key}


def cannot_open(error):
    def opener(name):
        raise error("cannot open this process's symbols")
    return opener


@pytest.mark.parametrize("opener", [
    cannot_open(OSError), cannot_open(TypeError),
    lambda name: object()],  # a C library without mallopt
    ids=["OSError", "TypeError", "no_mallopt"])
def test_heap_policy_without_mallopt_does_nothing(monkeypatch, opener):
    monkeypatch.setattr(training.ctypes, "CDLL", opener)
    training._set_heap_policy()
    assert train(BENCH, TrainConfig(iterations=2, batch_size=10))


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the heap policy is glibc's")
def test_one_share_steps_without_page_faults(fresh_python):
    # glibc's default policy hands the heap back after a stack step and
    # faults it in again on the next, about 120 thousand faults here
    faults = fresh_python(
        "import resource\n"
        "from srfe_lab import training\n"
        "from srfe_lab.experiments import benchmark_target\n"
        "training._cpu_count = lambda: 1\n"
        "jobs = [(benchmark_target(), training.TrainConfig(\n"
        "    iterations=100, schedule=training.TauSchedule.fixed(tau)))\n"
        "    for tau in (0.1, 0.3, 0.5, 0.7, 0.9, 0.99)]\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "done = training._map_shares(jobs, lambda s, n, f: f)\n"
        "outcomes = [done[i] for i in range(len(jobs))]\n"
        "after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "assert all(isinstance(o, training.TrainResult) for o in outcomes)\n"
        "print(after - before)\n")
    assert int(faults) < 10_000
