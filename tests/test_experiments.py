"""Experiment drivers on miniature configurations: deterministic CSVs,
correct cell layout, failure isolation, and the density-grid dump."""
import csv
import json
import math
import os
import platform
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
from srfe_lab.gaussians import (ContaminatedMixture, DiagonalGaussian,
                                GaussianMixture)
from srfe_lab.training import TauSchedule, TrainConfig
from test_training import assert_no_child_left

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

    def recording_step(stack, t):
        calls.extend((threading.get_ident(), t, cfg.objective,
                      cfg.schedule.describe()) for cfg in stack.cfgs)
        return real_step(stack, t)

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
        # the columns are derived from the row types; a reordered field
        # must not move one unnoticed
        assert agg[0] == [
            "tau", "mode_coverage_mean", "mode_coverage_std", "ess_mean",
            "ess_std", "entropy_error_mean", "entropy_error_std",
            "test_log_lik_mean", "test_log_lik_std"]
        assert read_csv(tmp_path / "exp2_trials.csv")[0] == list(CSV_HEADER)
        assert CSV_HEADER == (
            "method", "tau", "schedule", "outlier_weight", "mode_coverage",
            "ess", "entropy_error", "test_log_lik", "final_loss",
            "clamped_steps", "trial", "seed")

    # nine trials pass the 8-term block of numpy's pairwise summation
    @pytest.mark.parametrize("trials", [3, 9])
    def test_aggregate_matches_rows(self, tmp_path, trials):
        cfg = RunConfig(tau_grid=(0.4, 0.6), trials=trials,
                        out_dir=str(tmp_path), **TINY)
        res = run_exp2(cfg)
        assert [a.tau for a in res.aggregate] == [0.4, 0.6]
        for agg in res.aggregate:
            rows = np.array([astuple(r.metrics) for r in res.rows
                             if r.tau == agg.tau], dtype=np.float64)
            assert rows.shape == (trials, 4)
            assert astuple(agg.mean) == tuple(np.mean(rows, axis=0))
            assert astuple(agg.std) == tuple(np.std(rows, axis=0))

    def test_failed_trial_is_nan_in_every_aggregate_metric(self, tmp_path,
                                                           monkeypatch):
        real_fit = training._fit_lockstep

        def failing_second_cell(jobs, stacks, parent=None):
            # in whichever share fits cell 1, forked or not
            outcomes = real_fit(jobs, stacks, parent)
            if 1 in outcomes:
                outcomes[1] = RuntimeError("non-finite loss at step 1")
            return outcomes

        monkeypatch.setattr(training, "_fit_lockstep", failing_second_cell)
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

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                        reason="the heap policy is glibc's")
    def test_sweep_steps_without_page_faults(self, fresh_python, tmp_path):
        # three noise streams per share, stepped in turn: under glibc's
        # default heap policy about 300 thousand faults in this process
        config = tmp_path / "config.json"
        config.write_text('{"iterations": 150}')
        out = fresh_python(
            "import resource\n"
            "from srfe_lab import cli\n"
            f"assert cli.main(['exp2', '--out', {str(tmp_path)!r},\n"
            f"                 '--config', {str(config)!r}]) == 0\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)\n")
        assert int(out.splitlines()[-1]) < 50_000


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
        real_fit = training._fit_lockstep

        def counting(target, n, rng):
            calls.append(target)
            return evaluation.target_entropy(target, n, rng)

        def recording_fit(jobs, stacks, parent=None):
            outcomes = real_fit(jobs, stacks, parent)
            trained.extend((*jobs[i], outcomes[i]) for i in sorted(outcomes))
            return outcomes

        # one share: a forked share's calls would not reach these recorders
        # (test_each_share_runs_its_cells_and_keys counts across processes)
        monkeypatch.setattr(training, "_cpu_count", lambda: 1)
        monkeypatch.setattr(experiments, "target_entropy", counting)
        monkeypatch.setattr(training, "_fit_lockstep", recording_fit)
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
        real_q_side_step = training._q_side_step

        def recording_q_side_step(theta, eps, targets, taus):
            seen.extend(eps for _ in targets)
            return real_q_side_step(theta, eps, targets, taus)

        monkeypatch.setattr(training, "_q_side_step", recording_q_side_step)
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
    dict(dump_loss="no"), dict(tau_grid=()), dict(outlier_weights=[]),
])
def test_run_config_rejects_bad_values(bad):
    with pytest.raises(ValueError):
        RunConfig(**bad)


def test_run_config_grids_become_float_tuples():
    cfg = RunConfig(tau_grid=[0.25, 0.5], outlier_weights=[0, 0.1])
    assert cfg.tau_grid == (0.25, 0.5)
    assert cfg.outlier_weights == (0.0, 0.1)
    assert all(type(v) is float for v in cfg.outlier_weights)


class EvaluateRaises(GaussianMixture):
    """Fits like the benchmark mixture, then fails on the ESS batch."""

    def log_prob(self, x):
        if np.shape(x)[0] == evaluation.N_ESS:
            raise RuntimeError("log_prob failed on the ESS batch")
        return super().log_prob(x)


class EntropyRaises(GaussianMixture):
    """The benchmark mixture, but its target-entropy draw fails."""

    def sample(self, n, rng):
        if n == evaluation.N_ENTROPY:
            raise RuntimeError("sample failed on the entropy batch")
        return super().sample(n, rng)


class NanOnEssBatch(GaussianMixture):
    """Fits like the benchmark mixture; one log density of the ESS batch is
    NaN."""

    def log_prob(self, x):
        lp = super().log_prob(x)
        if np.shape(x)[0] == evaluation.N_ESS:
            lp[0] = np.nan
        return lp


def benchmark_like(cls):
    """The benchmark mixture as an instance of cls."""
    return cls(means=np.array(experiments.TARGET_MEANS),
               variance=experiments.TARGET_VARIANCE,
               weights=np.array(experiments.TARGET_WEIGHTS))


def failing_at(stage, error):
    """The benchmark mixture, except that at stage ("train", "entropy" or
    "evaluate") its call raises error."""
    class Failing(GaussianMixture):
        def log_prob_and_score(self, x):
            if stage == "train":
                raise error
            return super().log_prob_and_score(x)

        def sample(self, n, rng):
            if stage == "entropy" and n == evaluation.N_ENTROPY:
                raise error
            return super().sample(n, rng)

        def log_prob(self, x):
            if stage == "evaluate" and np.shape(x)[0] == evaluation.N_ESS:
                raise error
            return super().log_prob(x)

    return benchmark_like(Failing)


class TwoArgumentError(RuntimeError):
    """A RuntimeError whose constructor does not take its own args back, so
    pickle cannot rebuild it."""

    def __init__(self, what, stage):
        super().__init__(f"{what} gave up at {stage}")


def recording_forks(monkeypatch):
    """The pids of the children os.fork makes from now on."""
    pids = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return pids


class TestFailureIsolation:
    def assert_failed_cell(self, target, message):
        cell = _Cell("bad", None, None, None,
                     TrainConfig(objective="reverse_kl", iterations=2,
                                 batch_size=10),
                     target)
        res = _run_cells([cell])
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

        self.assert_failed_cell(BrokenTarget(),
                                "failed to train: non-finite loss at step 1")

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

        self.assert_failed_cell(
            NanScoreTarget(), "failed to train: non-finite gradient at step 1")

    def test_evaluate_error_yields_nan_row(self):
        self.assert_failed_cell(
            benchmark_like(EvaluateRaises),
            "failed to evaluate: log_prob failed on the ESS batch")

    def test_non_finite_entropy_estimate_yields_nan_row(self):
        # draws moved +100 in x, where log p is -inf: the estimate is +inf
        class OffSupportDraws:
            dim = 2
            base = benchmark_target()

            def log_prob(self, x):
                return self.log_prob_and_score(x)[0]

            def log_prob_and_score(self, x):
                lp, score = self.base.log_prob_and_score(x)
                lp[np.asarray(x)[:, 0] > 50.0] = -np.inf
                return lp, score

            def sample(self, n, rng):
                xs = self.base.sample(n, rng)
                xs[:, 0] += 100.0
                return xs

        self.assert_failed_cell(
            OffSupportDraws(), "failed to estimate the target entropy: "
            "non-finite target entropy estimate: inf")

    def test_non_finite_ess_yields_nan_row(self):
        self.assert_failed_cell(benchmark_like(NanOnEssBatch),
                                "failed to evaluate: non-finite ess: nan")

    def test_entropy_error_fails_only_that_targets_cells(self):
        bad = benchmark_like(EntropyRaises)
        cfg = TrainConfig(objective="reverse_kl", iterations=2, batch_size=10)
        cells = [_Cell(label, None, None, None, cfg, target)
                 for label, target in (("bad_0", bad),
                                       ("good", benchmark_target()),
                                       ("bad_1", bad))]
        res = _run_cells(cells)
        message = ("failed to estimate the target entropy: "
                   "sample failed on the entropy batch")
        assert res.failures == {"bad_0": message, "bad_1": message}
        for row, label in zip(res.rows, ("bad_0", "good", "bad_1")):
            failed = label != "good"
            assert (row.metrics.mode_coverage == -1) == failed
            assert math.isnan(row.metrics.ess) == failed
            assert math.isnan(row.final_loss) == failed
            assert (res.histories[label].size == 0) == failed


    @pytest.mark.parametrize("unpicklable", [False, True])
    def test_failures_in_a_forked_share_end_only_their_cells(
            self, monkeypatch, unpicklable):
        stages = {"entropy": "estimate the target entropy",
                  "train": "train", "evaluate": "evaluate"}
        errors = {stage: TwoArgumentError("target", stage) if unpicklable
                  else RuntimeError(f"target gave up at {stage}")
                  for stage in stages}
        good = benchmark_target()
        bad = {stage: failing_at(stage, errors[stage]) for stage in stages}
        cfg = TrainConfig(objective="reverse_kl", iterations=2, batch_size=10)
        # one noise stream, so the shares alternate and the odd cells are
        # share 1's; of the keys good, entropy, train and evaluate, share 1
        # estimates the second and the fourth
        cells = [_Cell(f"{name}_{k}", None, None, None, cfg, target)
                 for k, (name, target) in enumerate(
                     (("good", good), ("entropy", bad["entropy"]),
                      ("good", good), ("train", bad["train"]),
                      ("good", good), ("evaluate", bad["evaluate"])))]
        assert [sorted(i for rows in share.values() for i in rows)
                for share in training._split(
                    [(c.target, c.train_cfg) for c in cells], 2)] == [
            [0, 2, 4], [1, 3, 5]]
        monkeypatch.setattr(training, "_cpu_count", lambda: 1)
        alone = _run_cells(cells)
        forks = recording_forks(monkeypatch)
        monkeypatch.setattr(training, "_cpu_count", lambda: 2)
        shared = _run_cells(cells)
        assert len(forks) == 1
        assert_no_child_left()
        for res in (alone, shared):
            assert res.failures == {
                f"{stage}_{k}": f"failed to {stages[stage]}: " + (
                    f"TwoArgumentError: {errors[stage]}"
                    if unpicklable and res is shared else str(errors[stage]))
                for k, stage in ((1, "entropy"), (3, "train"),
                                 (5, "evaluate"))}
        for k, (a, b) in enumerate(zip(alone.rows, shared.rows)):
            if k % 2:
                for row in (a, b):
                    assert row.metrics is experiments._FAILED
                    assert math.isnan(row.final_loss)
                    assert row.clamped_steps == -1
                assert shared.histories[cells[k].label].size == 0
            else:
                assert a == b and math.isfinite(b.metrics.entropy_error)
                np.testing.assert_array_equal(
                    alone.histories[cells[k].label],
                    shared.histories[cells[k].label])


@pytest.mark.parametrize("cpus", [1, 2])
def test_each_share_runs_its_cells_and_keys(monkeypatch, tmp_path, cpus):
    # a forked share fits, evaluates and estimates in the child, so every
    # process appends what it does to one file
    log = tmp_path / "work.jsonl"

    def record(*entry):
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(json.dumps([os.getpid(), *entry]) + "\n")

    real_fit = training._fit_lockstep
    real_evaluate = experiments.evaluate
    real_entropy = experiments.target_entropy

    def recording_fit(jobs, stacks, parent=None):
        outcomes = real_fit(jobs, stacks, parent)
        for i, outcome in outcomes.items():
            record("fit", i, outcome.model.mu.tobytes().hex())
        return outcomes

    def recording_evaluate(q, *args):
        record("evaluate", q.mu.tobytes().hex())
        return real_evaluate(q, *args)

    def recording_entropy(target, n, rng):
        record("entropy", id(target))
        return real_entropy(target, n, rng)

    monkeypatch.setattr(training, "_fit_lockstep", recording_fit)
    monkeypatch.setattr(experiments, "evaluate", recording_evaluate)
    monkeypatch.setattr(experiments, "target_entropy", recording_entropy)
    forks = recording_forks(monkeypatch)
    monkeypatch.setattr(training, "_cpu_count", lambda: cpus)
    base = benchmark_target()
    # three keys of one seed, one noise stream: the shares alternate
    targets = [base] + [ContaminatedMixture(base=base, outlier_weight=w)
                        for w in (0.1, 0.2)]
    cells = [_Cell(f"{k}_{tau}", tau, None, None,
                   TrainConfig(schedule=TauSchedule.fixed(tau), iterations=2,
                               batch_size=20), target)
             for k, target in enumerate(targets) for tau in (0.2, 0.5, 0.8)]
    res = _run_cells(cells)
    assert res.failures == {}
    assert len(forks) == cpus - 1
    assert_no_child_left()
    pids = [os.getpid(), *forks]
    fitted, evaluated, estimated = {}, [], {pid: [] for pid in pids}
    for line in log.read_text(encoding="utf-8").splitlines():
        pid, what, *entry = json.loads(line)
        if what == "fit":
            fitted[entry[1]] = (pid, entry[0])
        elif what == "evaluate":
            evaluated.append((pid, entry[0]))
        else:
            estimated[pid].append(entry[0])
    split = training._split([(c.target, c.train_cfg) for c in cells], cpus)
    assert sorted(i for pid, i in fitted.values()) == list(range(len(cells)))
    for pid, share in zip(pids, split):
        assert sorted(i for p, i in fitted.values() if p == pid) == sorted(
            i for rows in share.values() for i in rows)
    # every cell once, in the process that fitted it
    assert sorted(evaluated) == sorted(
        (pid, mu) for mu, (pid, i) in fitted.items())
    # each key once, share s of P taking keys[s::P]
    keys = [id(target) for target in targets]
    assert estimated == {pid: keys[s::cpus] for s, pid in enumerate(pids)}


def test_clamped_steps_counts_every_clamped_step(tmp_path):
    # no draw of the model comes near the far target, so the overlap
    # estimate sits at the low clamp on every step
    far = DiagonalGaussian(mu=np.full(2, 100.0), log_sigma=np.zeros(2))
    cfg = TrainConfig(objective="srfe", schedule=TauSchedule.fixed(0.5),
                      iterations=4, batch_size=20)
    res = _run_cells([_Cell("far", 0.5, None, None, cfg, far)])
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
