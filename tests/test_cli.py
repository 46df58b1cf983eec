"""Command-line front end: argument plumbing, config layering, exit codes,
and the declared console script."""
import csv
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import srfe_lab
from srfe_lab import cli, experiments, training
from srfe_lab.cli import main
from test_experiments import EntropyRaises, EvaluateRaises, benchmark_like


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestVerify:
    def test_json_report(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["verify", "--json", str(out)])
        assert code == 0
        reports = json.loads(out.read_text())
        assert len(reports) >= 9
        assert all(r["passed"] for r in reports)
        assert {"name", "passed", "observed", "threshold", "details"} <= \
            set(reports[0])
        text = capsys.readouterr().out
        assert "PASS" in text
        assert "FAIL" not in text

    def test_unwritable_json_is_a_clean_error(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        path = blocker / "x.json"
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--json", str(path)])
        assert str(exc.value).startswith("srfe-lab: ")
        assert str(path) in str(exc.value)
        assert "report written" not in capsys.readouterr().out

    def test_negative_seed_is_a_clean_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--seed", "-1"])
        assert str(exc.value) == \
            "srfe-lab: seed must be an integer >= 0, got -1"
        assert capsys.readouterr().out == ""  # no check ran

    def test_negative_control_exit_code(self, capsys):
        code = main(["verify", "--inject-failure"])
        assert code == 1
        assert "FAIL  injected_failure" in capsys.readouterr().out


class TestExperimentCommands:
    def test_config_file_with_flag_override(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "iterations": 3, "batch_size": 50, "tau_grid": [0.5], "seed": 3,
        }))
        out = tmp_path / "results"
        code = main(["exp1", "--config", str(cfg_path), "--seed", "4",
                     "--out", str(out)])
        assert code == 0
        table = read_csv(out / "exp1.csv")
        assert len(table) == 4
        # the explicit flag beats the config file
        assert {row[-1] for row in table[1:]} == {"4"}

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"iterations": 3, "optimizer": "sgd"}))
        with pytest.raises(SystemExit, match="unknown config keys"):
            main(["exp1", "--config", str(cfg_path)])

    def test_exp4_tiny(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "iterations": 3, "batch_size": 50, "tau_grid": [0.5],
            "outlier_weights": [0.0, 0.1],
        }))
        code = main(["exp4", "--config", str(cfg_path), "--out",
                     str(tmp_path / "r")])
        assert code == 0
        assert len(read_csv(tmp_path / "r" / "exp4.csv")) == 3


    def test_failed_cells_are_named_with_their_cause(self, tmp_path, capsys,
                                                     monkeypatch):
        class BrokenTarget:
            dim = 2

            def log_prob(self, x):
                return np.full(x.shape[0], np.nan)

            def log_prob_and_score(self, x):
                return self.log_prob(x), np.zeros(x.shape)

            def sample(self, n, rng):
                return rng.standard_normal((n, 2))

        monkeypatch.setattr(experiments, "benchmark_target", BrokenTarget)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"iterations": 2, "batch_size": 20}))
        code = main(["exp3", "--config", str(cfg_path), "--out",
                     str(tmp_path / "r")])
        assert code == 1
        warnings = capsys.readouterr().err.splitlines()
        assert warnings == [
            f"warning: cell {s.describe()} failed to train: "
            "non-finite loss at step 1"
            for s in experiments.exp3_schedules()]

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflowing_learning_rate_fails_every_cell(self, tmp_path,
                                                        capsys):
        # the config check accepts any finite positive rate; this one
        # overflows every cell's first Adam step
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"learning_rate": 1e308,
                                        "iterations": 1}))
        code = main(["exp1", "--config", str(cfg_path), "--out",
                     str(tmp_path / "r")])
        assert code == 1
        table = read_csv(tmp_path / "r" / "exp1.csv")
        assert len(table) == 8
        for row in table[1:]:
            metrics = dict(zip(table[0], row))
            assert metrics["mode_coverage"] == metrics["clamped_steps"] == "-1"
            assert {metrics[k] for k in ("ess", "entropy_error",
                                         "test_log_lik", "final_loss")} == {
                "nan"}
        labels = ["forward_kl", "reverse_kl",
                  *(f"srfe_tau_{tau:g}" for tau in experiments.EXP1_TAUS)]
        assert capsys.readouterr().err.splitlines() == [
            f"warning: cell {label} failed to train: "
            "non-finite parameters at step 1" for label in labels]

    @pytest.mark.parametrize("target, stage, reason", [
        (EntropyRaises, "estimate the target entropy",
         "sample failed on the entropy batch"),
        (EvaluateRaises, "evaluate", "log_prob failed on the ESS batch")],
        ids=["entropy", "evaluate"])
    def test_failed_cells_name_the_stage_that_failed(
            self, tmp_path, capsys, monkeypatch, target, stage, reason):
        monkeypatch.setattr(experiments, "benchmark_target",
                            lambda: benchmark_like(target))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"iterations": 2, "batch_size": 20,
                                        "tau_grid": [0.5]}))
        code = main(["exp1", "--config", str(cfg_path), "--out",
                     str(tmp_path / "r")])
        assert code == 1
        out, err = capsys.readouterr()
        assert out == f"exp1: wrote 3 rows to {tmp_path / 'r'}/\n"
        assert err.splitlines() == [
            f"warning: cell {label} failed to {stage}: {reason}"
            for label in ("forward_kl", "reverse_kl", "srfe_tau_0.5")]


    @pytest.mark.parametrize("command", ["exp1", "exp2", "exp3", "exp4"])
    def test_unwritable_out_fails_before_training(self, tmp_path, capsys,
                                                   monkeypatch, command):
        trained = []
        real_run = experiments._run_cells

        def recording_run(cells):
            trained.append(cells)
            return real_run(cells)

        monkeypatch.setattr(experiments, "_run_cells", recording_run)
        blocker = tmp_path / "file"
        blocker.write_text("")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"iterations": 1, "batch_size": 20}))
        out = blocker / "sub"
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", str(cfg_path), "--out", str(out)])
        assert str(exc.value).startswith("srfe-lab: ")
        assert str(out) in str(exc.value)
        assert trained == []
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("forked", [False, True],
                             ids=["calling-share", "forked-share"])
    def test_out_of_memory_is_a_clean_error(self, tmp_path, capsys,
                                            monkeypatch, forked):
        # what numpy raises for a size such as {"iterations": 10**11},
        # in the calling process's share or sent back by a forked one
        real_fit = training._fit_lockstep

        def fit(jobs, stacks, parent=None):
            if (parent is not None) == forked:
                raise MemoryError("Unable to allocate 745. GiB")
            return real_fit(jobs, stacks, parent)

        monkeypatch.setattr(training, "_cpu_count", lambda: 2)
        monkeypatch.setattr(training, "_fit_lockstep", fit)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"iterations": 1, "batch_size": 20}))
        out = tmp_path / "r"
        with pytest.raises(SystemExit) as exc:
            main(["exp1", "--config", str(cfg_path), "--out", str(out)])
        assert str(exc.value) == "srfe-lab: Unable to allocate 745. GiB"
        assert capsys.readouterr().out == ""
        assert list(out.iterdir()) == []
        with pytest.raises(ChildProcessError):  # every share was reaped
            os.waitpid(-1, os.WNOHANG)


class TestDensityGrid:
    def test_stdout_dump(self, capsys):
        # the equals form keeps argparse from reading the leading minus
        # sign of the bounds as an option prefix
        code = main(["density-grid", "--target", "mixture",
                     "--bounds=-1,1,-1,1", "--res", "3"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "x,y,log_density"
        assert len(lines) == 10
        first = lines[1].split(",")
        assert float(first[0]) == -1.0
        assert float(first[1]) == -1.0

    def test_model_target_to_file(self, tmp_path):
        out = tmp_path / "grid.csv"
        code = main(["density-grid", "--target", "model", "--mu", "1,2",
                     "--log-sigma", "0,0", "--bounds=0,2,1,3", "--res", "5",
                     "--out", str(out)])
        assert code == 0
        table = read_csv(out)
        assert len(table) == 26
        # peak row of the dump is the model mean
        values = [(float(r[2]), float(r[0]), float(r[1])) for r in table[1:]]
        assert max(values)[1:] == (1.0, 2.0)

    def test_contaminated_grid(self, capsys):
        code = main(["density-grid", "--target", "mixture",
                     "--outlier-weight", "0.3", "--bounds=8,9,8,9",
                     "--res", "2"])
        assert code == 0
        rows = capsys.readouterr().out.strip().splitlines()[1:]
        import math
        for row in rows:
            assert float(row.split(",")[2]) == pytest.approx(
                math.log(0.3 / 400.0), abs=1e-6)

    @pytest.mark.parametrize("extra, message", [
        (["--target", "mixture", "--outlier-weight", "1.5"],
         "outlier_weight must lie in [0, 1)"),
        (["--target", "mixture", "--outlier-weight", "-0.1"],
         "outlier_weight must lie in [0, 1)"),
        (["--target", "mixture", "--outlier-weight", "nan"],
         "outlier_weight must lie in [0, 1)"),
        (["--target", "model", "--mu", "nan,0"], "mu must be finite"),
        (["--target", "model", "--log-sigma", "0,inf"],
         "log_sigma must be finite"),
        (["--target", "model", "--log-sigma=-800,0"],
         "--log-sigma -800,0 gives a zero scale: exp(log_sigma) underflows "
         "to 0"),
        (["--target", "model", "--out", "{tmp}/missing/grid.csv"],
         "{tmp}/missing/grid.csv"),
        (["--target", "mixture", "--bounds=0,inf,0,1"],
         "bounds must be finite, got (0.0, inf, 0.0, 1.0)"),
    ], ids=["weight-1.5", "weight-negative", "weight-nan", "mu-nan",
            "log-sigma-inf", "log-sigma-underflow", "unwritable-out",
            "bounds-inf"])
    def test_bad_input_is_a_clean_error(self, tmp_path, capsys, extra,
                                        message):
        argv = ["density-grid", "--bounds=0,1,0,1", "--res", "2",
                *(a.format(tmp=tmp_path) for a in extra)]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert str(exc.value).startswith("srfe-lab: ")
        assert message.format(tmp=tmp_path) in str(exc.value)
        assert capsys.readouterr().out == ""

    def test_out_of_memory_is_a_clean_error(self, capsys, monkeypatch):
        def density_grid(dist, bounds, res):
            raise MemoryError("Unable to allocate 11.9 GiB")

        monkeypatch.setattr(cli, "density_grid", density_grid)
        with pytest.raises(SystemExit) as exc:
            main(["density-grid", "--target", "mixture", "--bounds=0,1,0,1",
                  "--res", "40000"])
        assert str(exc.value) == "srfe-lab: Unable to allocate 11.9 GiB"
        assert capsys.readouterr().out == ""

    def test_bad_bounds_exit(self):
        with pytest.raises(SystemExit):
            main(["density-grid", "--target", "mixture", "--bounds=1,2,3",
                  "--res", "3"])
        with pytest.raises(SystemExit):
            main(["density-grid", "--target", "mixture", "--bounds=2,1,0,1",
                  "--res", "3"])


def test_console_script_installed():
    """The declared console script resolves and runs, installed or not.

    The entry point is read from pyproject.toml and called in a child
    interpreter the way the generated launcher calls it.  Where an installed
    `srfe-lab` is on PATH, it must print the same output.
    """
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).resolve().parent.parent
    with open(root / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert "srfe-lab" in scripts, "console script not declared"
    module, attr = scripts["srfe-lab"].split(":")
    launcher = (f"import sys; from {module} import {attr}; "
                f"sys.exit({attr}())")

    args = ["density-grid", "--target", "model", "--bounds=0,1,0,1",
            "--res", "2"]
    proc = subprocess.run([sys.executable, "-c", launcher, *args],
                          env=_child_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("x,y,log_density")

    exe = shutil.which("srfe-lab")
    if exe is not None:
        installed = subprocess.run([exe, *args], capture_output=True,
                                   text=True, timeout=120)
        assert installed.returncode == 0, installed.stderr
        assert installed.stdout == proc.stdout


def test_distribution_name_and_version():
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).resolve().parent.parent
    with open(root / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert project["name"] == "srfe-lab"
    assert project["version"] == srfe_lab.__version__


def _child_env():
    env = dict(os.environ)
    src = str(Path(srfe_lab.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def test_runtime_imports_no_scipy():
    code = ("import sys, srfe_lab, srfe_lab.cli; "
            "print(sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')))")
    proc = subprocess.run([sys.executable, "-c", code], env=_child_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("command, config, message", [
    ("exp1", {"iterations": 0}, "iterations must be an integer >= 1, got 0"),
    ("exp1", {"iterations": "abc"},
     "iterations must be an integer >= 1, got 'abc'"),
    ("exp1", {"batch_size": 2.5},
     "batch_size must be an integer >= 1, got 2.5"),
    ("exp1", {"tau_grid": [1.5]}, "tau must lie in (0, 1), got [1.5]"),
    ("exp4", {"outlier_weights": [1.0]},
     "outlier_weight must lie in [0, 1)"),
    ("exp1", {"tau_grid": [0.5, 0.5]},
     "tau_grid has repeated entries: [0.5, 0.5]"),
    ("exp4", {"outlier_weights": [0.1, 0.1]},
     "outlier_weights has repeated entries: [0.1, 0.1]"),
    ("exp2", {"trials": 0}, "trials must be an integer >= 1, got 0"),
    ("exp1", [1, 2], "must hold a JSON object, got list"),
])
def test_bad_config_is_a_clean_error(tmp_path, command, config, message):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", str(cfg_path), "--out", str(out),
              "--dump-loss"])
    assert str(exc.value).startswith("srfe-lab: ")
    assert str(exc.value).endswith(message)
    assert not out.exists()  # stopped before any work


def test_missing_subcommand_is_an_error():
    with pytest.raises(SystemExit):
        main([])
