"""Experiment drivers on miniature configurations: deterministic CSVs,
correct cell layout, failure isolation, and the density-grid dump."""
import csv
import math
import os
import threading
from dataclasses import astuple

import numpy as np
import pytest

from srfe_lab import evaluation, experiments, training
from srfe_lab.evaluation import EvalMetrics
from srfe_lab.experiments import (
    CSV_HEADER,
    RunConfig,
    _Cell,
    _run_cells,
    benchmark_target,
    density_grid,
    dump_history,
    exp3_schedules,
    run_exp1,
    run_exp2,
    run_exp3,
    run_exp4,
    write_rows,
)
from srfe_lab.gaussians import ContaminatedMixture, DiagonalGaussian
from srfe_lab.training import TauSchedule, TrainConfig

TINY = dict(iterations=3, batch_size=50)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestExp1:
    def test_layout_and_determinism(self, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        cfg1 = RunConfig(tau_grid=(0.5,), out_dir=str(d1), **TINY)
        cfg2 = RunConfig(tau_grid=(0.5,), out_dir=str(d2), **TINY)
        res = run_exp1(cfg1)
        run_exp1(cfg2)
        assert [r.method for r in res.rows] == ["forward_kl", "reverse_kl",
                                                "srfe"]
        assert (d1 / "exp1.csv").read_bytes() == (d2 / "exp1.csv").read_bytes()
        table = read_csv(d1 / "exp1.csv")
        assert table[0] == list(CSV_HEADER)
        assert len(table) == 4

    def test_loss_dump(self, tmp_path):
        cfg = RunConfig(tau_grid=(0.3,), out_dir=str(tmp_path),
                        dump_loss=True, **TINY)
        run_exp1(cfg)
        for label in ("forward_kl", "reverse_kl", "srfe_tau_0.3"):
            rows = read_csv(tmp_path / f"exp1_loss_{label}.csv")
            assert rows[0] == ["step", "loss"]
            assert len(rows) == 1 + TINY["iterations"]
            assert rows[1][0] == "1"


def test_cells_run_in_calling_thread_in_order(tmp_path, monkeypatch):
    calls = []
    real_step = training._Stack.step

    def recording_step(stack, t, noise):
        calls.extend((threading.get_ident(), t, cfg.objective,
                      cfg.schedule.describe()) for cfg in stack.cfgs)
        return real_step(stack, t, noise)

    monkeypatch.setattr(training._Stack, "step", recording_step)
    # one share: a forked share's steps would not reach this recorder
    monkeypatch.setattr(training, "_cpu_count", lambda: 1)
    run_exp1(RunConfig(tau_grid=(0.3, 0.7), iterations=2, batch_size=20,
                       out_dir=str(tmp_path)))
    me = threading.get_ident()
    # lockstep: every cell takes step 1, in cell order, then step 2
    assert calls == [(me, t, objective, schedule) for t in (1, 2)
                     for objective, schedule in (
                         ("forward_kl", "fixed_0.5"),
                         ("reverse_kl", "fixed_0.5"),
                         ("srfe", "fixed_0.3"), ("srfe", "fixed_0.7"))]


class TestExp2:
    def test_trials_and_aggregate(self, tmp_path):
        cfg = RunConfig(tau_grid=(0.2, 0.5), trials=2, seed=10,
                        out_dir=str(tmp_path), **TINY)
        res = run_exp2(cfg)
        assert len(res.rows) == 4
        assert sorted({r.trial for r in res.rows}) == [0, 1]
        # trial seeds are offsets from the base seed
        assert sorted({r.seed for r in res.rows}) == [10, 11]
        assert [a.tau for a in res.aggregate] == [0.2, 0.5]
        agg = read_csv(tmp_path / "exp2_aggregate.csv")
        assert len(agg) == 3
        assert agg[0][0] == "tau"
        assert os.path.exists(tmp_path / "exp2_trials.csv")

    def test_aggregate_matches_rows(self, tmp_path):
        cfg = RunConfig(tau_grid=(0.4,), trials=3, out_dir=str(tmp_path), **TINY)
        res = run_exp2(cfg)
        esses = [r.metrics.ess for r in res.rows]
        assert res.aggregate[0].mean.ess == pytest.approx(np.mean(esses))
        assert res.aggregate[0].std.ess == pytest.approx(np.std(esses))

    def test_failed_trial_is_nan_in_every_aggregate_metric(self, tmp_path,
                                                           monkeypatch):
        real_runner = experiments.train_lockstep

        def failing_second_cell(jobs):
            outcomes = real_runner(jobs)
            outcomes[1] = RuntimeError("non-finite loss at step 1")
            return outcomes

        monkeypatch.setattr(experiments, "train_lockstep",
                            failing_second_cell)
        cfg = RunConfig(tau_grid=(0.4, 0.6), trials=3, out_dir=str(tmp_path),
                        **TINY)
        res = run_exp2(cfg)
        assert list(res.failures) == ["srfe_tau_0.4_trial_1"]
        failed, trained = res.aggregate
        # the failed row's sentinel coverage -1 is not averaged in
        for metrics in (failed.mean, failed.std):
            assert all(math.isnan(v) for v in astuple(metrics))
        assert trained.mean.mode_coverage >= 1
        assert all(math.isfinite(v) for v in astuple(trained.mean))
        agg = read_csv(tmp_path / "exp2_aggregate.csv")
        assert agg[1] == ["0.40000000000000002"] + ["nan"] * 8


class TestExp3:
    def test_schedule_labels_and_histories(self, tmp_path):
        cfg = RunConfig(out_dir=str(tmp_path), **TINY)
        res = run_exp3(cfg)
        expected = [s.describe() for s in exp3_schedules()]
        assert [r.schedule for r in res.rows] == expected
        assert expected[0] == "fixed_0.5"
        assert "linear_0.3_to_0.9" in expected
        assert "stepwise_0.3_0.5_0.7_0.9" in expected
        for label in expected:
            assert res.histories[label].shape == (TINY["iterations"],)


class TestExp4:
    def test_weight_grid(self, tmp_path):
        cfg = RunConfig(tau_grid=(0.5,), outlier_weights=(0.0, 0.2),
                        out_dir=str(tmp_path), **TINY)
        res = run_exp4(cfg)
        assert [(r.outlier_weight, r.tau) for r in res.rows] == \
            [(0.0, 0.5), (0.2, 0.5)]
        assert os.path.exists(tmp_path / "exp4.csv")

    def test_target_entropy_drawn_once_per_target_and_seed(
            self, tmp_path, monkeypatch):
        calls, trained = [], []
        real_runner = experiments.train_lockstep

        def counting(target, n, rng):
            calls.append(target)
            return evaluation.target_entropy(target, n, rng)

        def recording_runner(jobs):
            outcomes = real_runner(jobs)
            trained.extend((target, cfg, result)
                           for (target, cfg), result in zip(jobs, outcomes))
            return outcomes

        monkeypatch.setattr(experiments, "target_entropy", counting)
        monkeypatch.setattr(experiments, "train_lockstep", recording_runner)
        res = run_exp4(RunConfig(tau_grid=(0.3, 0.7),
                                 outlier_weights=(0.0, 0.2), iterations=1,
                                 batch_size=20, out_dir=str(tmp_path)))
        # two targets, one seed: two estimates for four cells
        assert len(res.rows) == len(trained) == 4 and len(calls) == 2
        assert calls[0] is not calls[1]
        for row, (target, cfg, result) in zip(res.rows, trained):
            alone = evaluation.evaluate(
                result.model, target, benchmark_target(), cfg.seed,
                evaluation.target_entropy(
                    target, evaluation.N_ENTROPY,
                    np.random.default_rng(cfg.seed + 2)))
            assert row.metrics == alone


    def test_cells_share_one_noise_batch_per_iteration(self, tmp_path,
                                                       monkeypatch):
        seen = []
        real_step = training._Stack.step

        def recording_step(stack, t, eps):
            seen.extend(eps for _ in stack.jobs)
            return real_step(stack, t, eps)

        monkeypatch.setattr(training._Stack, "step", recording_step)
        # one share: a forked share's steps would not reach this recorder
        monkeypatch.setattr(training, "_cpu_count", lambda: 1)
        res = run_exp4(RunConfig(tau_grid=(0.3, 0.7),
                                 outlier_weights=(0.0, 0.2), iterations=3,
                                 batch_size=20, out_dir=str(tmp_path)))
        # four cells, one seed: 12 steps read 3 draws
        assert len(res.rows) == 4 and len(seen) == 12
        assert len({id(eps) for eps in seen}) == 3
        assert not any(eps.flags.writeable for eps in seen)


@pytest.mark.parametrize("bad", [
    dict(seed=-1), dict(iterations=True), dict(learning_rate=0.0),
    dict(learning_rate=float("nan")), dict(tau_grid=0.5),
    dict(tau_grid=(0.5, 0.50000001)), dict(outlier_weights=(1.0,)),
    dict(trials=0), dict(out_dir=""), dict(out_dir=None),
    dict(dump_loss="no"),
])
def test_run_config_rejects_bad_values(bad):
    with pytest.raises(ValueError):
        RunConfig(**bad)


def test_run_config_grids_become_float_tuples():
    cfg = RunConfig(tau_grid=[0.25, 0.5], outlier_weights=[0, 0.1])
    assert cfg.tau_grid == (0.25, 0.5)
    assert cfg.outlier_weights == (0.0, 0.1)
    assert all(type(v) is float for v in cfg.outlier_weights)


class TestFailureIsolation:
    def assert_failed_cell(self, target, message):
        cell = _Cell("bad", None, None, None,
                     TrainConfig(objective="reverse_kl", iterations=2,
                                 batch_size=10),
                     target)
        res = _run_cells([cell], benchmark_target())
        (row,), history = res.rows, res.histories["bad"]
        assert res.failures == {"bad": message}
        assert row.method == "reverse_kl"
        assert row.metrics.mode_coverage == -1
        assert math.isnan(row.metrics.ess)
        assert math.isnan(row.final_loss)
        assert row.clamped_steps == -1
        assert history.size == 0

    def test_broken_target_yields_nan_row(self):
        class BrokenTarget:
            dim = 2

            def log_prob(self, x):
                return np.full(np.asarray(x).shape[0], np.nan)

            def log_prob_and_score(self, x):
                return self.log_prob(x), np.zeros_like(np.asarray(x))

            def sample(self, n, rng):
                return rng.standard_normal((n, 2))

        self.assert_failed_cell(BrokenTarget(), "non-finite loss at step 1")

    def test_nan_score_target_yields_nan_row(self):
        # the loss is finite, the gradient is not
        class NanScoreTarget:
            dim = 2

            def log_prob(self, x):
                return np.zeros(np.asarray(x).shape[0])

            def log_prob_and_score(self, x):
                return self.log_prob(x), np.full(np.asarray(x).shape, np.nan)

            def sample(self, n, rng):  # the entropy estimate draws first
                return rng.standard_normal((n, 2))

        self.assert_failed_cell(NanScoreTarget(),
                                "non-finite gradient at step 1")


def test_clamped_steps_counts_every_clamped_step(tmp_path):
    # no draw of the model comes near the far target, so the overlap
    # estimate sits at the low clamp on every step
    far = DiagonalGaussian(mu=np.full(2, 100.0), log_sigma=np.zeros(2))
    cfg = TrainConfig(objective="srfe", schedule=TauSchedule.fixed(0.5),
                      iterations=4, batch_size=20)
    res = _run_cells([_Cell("far", 0.5, None, None, cfg, far)],
                     benchmark_target())
    (row,), history = res.rows, res.histories["far"]
    assert row.clamped_steps == cfg.iterations == history.size
    path = tmp_path / "t.csv"
    write_rows(str(path), [row])
    table = read_csv(path)
    assert table[1][table[0].index("clamped_steps")] == str(cfg.iterations)


class TestCsvRoundTrip:
    def test_full_precision(self, tmp_path):
        row_in = 1.0 / 3.0
        path = tmp_path / "t.csv"
        from srfe_lab.experiments import ResultRow
        write_rows(str(path), [ResultRow(
            "m", row_in, None, None,
            EvalMetrics(3, row_in, row_in, -row_in), row_in, 0, 0, 0)])
        table = read_csv(path)
        assert float(table[1][1]) == row_in
        assert float(table[1][5]) == row_in
        assert table[1][2] == ""  # schedule column empty, not "None"


class TestDensityGrid:
    def test_shape_and_order(self):
        q = DiagonalGaussian(mu=np.zeros(2), log_sigma=np.zeros(2))
        grid = density_grid(q, (-1.0, 1.0, -2.0, 2.0), 3)
        assert grid.shape == (9, 3)
        # x varies fastest
        np.testing.assert_allclose(grid[:3, 0], [-1.0, 0.0, 1.0])
        np.testing.assert_allclose(grid[:3, 1], -2.0)
        assert grid[4, 2] == pytest.approx(q.log_prob(np.zeros(2)), abs=1e-14)

    def test_benchmark_has_three_interior_peaks(self):
        res = 121
        grid = density_grid(benchmark_target(), (-6.0, 6.0, -6.0, 6.0), res)
        z = grid[:, 2].reshape(res, res)  # [y, x]
        inner = z[1:-1, 1:-1]
        neighbors = [z[1 + dy:res - 1 + dy, 1 + dx:res - 1 + dx]
                     for dy in (-1, 0, 1) for dx in (-1, 0, 1)
                     if (dy, dx) != (0, 0)]
        peaks = inner > np.max(neighbors, axis=0)
        ys, xs = np.nonzero(peaks)
        coords = sorted(zip(grid[:, 0].reshape(res, res)[ys + 1, xs + 1],
                            grid[:, 1].reshape(res, res)[ys + 1, xs + 1]))
        assert coords == [(-3.0, 0.0), (0.0, 4.0), (3.0, 0.0)]

    def test_contaminated_floor(self):
        mix = ContaminatedMixture(base=benchmark_target(), outlier_weight=0.3)
        grid = density_grid(mix, (8.0, 9.9, 8.0, 9.9), 4)
        # far from every mode but inside the box: the uniform floor
        np.testing.assert_allclose(grid[:, 2], math.log(0.3 / 400.0), atol=1e-6)
        bare = density_grid(benchmark_target(), (8.0, 9.9, 8.0, 9.9), 4)
        assert np.all(bare[:, 2] < -25.0)

    def test_validation(self):
        q = DiagonalGaussian(mu=np.zeros(2), log_sigma=np.zeros(2))
        with pytest.raises(ValueError):
            density_grid(q, (1.0, -1.0, 0.0, 1.0), 5)
        with pytest.raises(ValueError):
            density_grid(q, (0.0, 1.0, 0.0, 1.0), 1)
        for bounds in ((0.0, math.inf, 0.0, 1.0), (-math.inf, 1.0, 0.0, 1.0),
                       (0.0, 1.0, 0.0, math.nan)):
            with pytest.raises(ValueError, match="bounds must be finite"):
                density_grid(q, bounds, 2)


def test_dump_history_format(tmp_path):
    path = tmp_path / "h.csv"
    dump_history(str(path), np.array([1.5, 2.5]))
    assert read_csv(path) == [["step", "loss"], ["1", "1.5"], ["2", "2.5"]]
