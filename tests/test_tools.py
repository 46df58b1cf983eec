"""The code-line counter of tools/count_code_lines.py, which measures the
size of src/srfe_lab: docstrings, comments and blank lines are not code,
and every line of a statement is.  The claim rule of tools/bench_pairs.py's
summary, on hand-made runs.  A smoke run of tools/working_set.py, and the
density-grid runs and the run whose cells all fail of
tools/compare_outputs.py's matrix."""
import importlib.util
from pathlib import Path

_TOOLS = Path(__file__).resolve().parent.parent / "tools"


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, _TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


code_lines = load_tool("count_code_lines").code_lines
summary = load_tool("bench_pairs").summary

# ten parent runs, 1.0 to 1.9: median 1.45, IQR 0.45
PARENT = [1.0 + 0.1 * k for k in range(10)]


def test_docstrings_are_not_counted():
    source = '''\
"""Module docstring,
over two lines."""
import math


class Box:
    """Class docstring."""
    side = 2.0

    def area(self):
        """Function
        docstring."""
        return self.side ** 2


async def wait():
    """Coroutine docstring."""
    return math.pi
'''
    # import, class, side, def, return, async def, return
    assert code_lines(source) == 7


def test_a_string_that_is_not_a_docstring_is_counted():
    source = '''\
x = 1
"""Not the first statement of its body, so code."""
label = """two
lines"""
'''
    assert code_lines(source) == 4


def test_comments_and_blank_lines_are_not_counted():
    source = '''\
# a comment

import math  # a trailing comment


    # an indented comment
value = math.e
'''
    assert code_lines(source) == 2


def test_a_statement_over_several_lines_counts_each_line():
    source = '''\
total = (1 +
         2 +
         3)
call = max(1,
           # a comment inside the call
           2)
'''
    assert code_lines(source) == 5


def test_claim_holds_when_lower_in_nine_tenths_by_more_than_the_iqr():
    change = [p - 1.0 for p in PARENT]
    result = summary(PARENT, change)
    assert result["change_lower_in_pairs"] == 10
    assert result["parent_iqr"] == 0.45
    assert result["claim_holds"] is True
    # nine of ten pairs is enough
    change[3] = PARENT[3] + 1.0
    assert summary(PARENT, change)["claim_holds"] is True


def test_claim_fails_with_too_few_wins():
    change = [p - 1.0 for p in PARENT]
    change[3], change[7] = PARENT[3] + 1.0, PARENT[7] + 1.0
    result = summary(PARENT, change)
    assert result["change_lower_in_pairs"] == 8
    assert result["parent_median"] - result["change_median"] > 0.45
    assert result["claim_holds"] is False


def test_claim_fails_with_a_gap_within_the_iqr():
    result = summary(PARENT, [p - 0.4 for p in PARENT])
    assert result["change_lower_in_pairs"] == 10
    assert result["claim_holds"] is False


def test_a_tie_counts_for_neither_side():
    change = [p - 1.0 for p in PARENT]
    change[3] = PARENT[3]
    result = summary(PARENT, change)
    assert result["change_lower_in_pairs"] == 9
    assert result["claim_holds"] is True
    change[7] = PARENT[7]
    result = summary(PARENT, change)
    assert result["change_lower_in_pairs"] == 8
    assert result["claim_holds"] is False


def test_working_set_reports_a_peak_per_stage():
    peaks = load_tool("working_set").measure()
    assert list(peaks) == [
        "step.exp1.sample", "step.exp1.normal", "step.exp4.normal",
        "target_entropy.mixture", "target_entropy.w=0",
        "target_entropy.w=0.1", "target_entropy.w=0.2",
        "target_entropy.w=0.3", "evaluate"]
    # every stage holds at least its own draws: 5000 x 2, 10^5 x 2 and
    # 10^4 x 2 doubles
    assert all(peaks[name] > 0.07 for name in peaks)
    assert all(peaks[name] > 1.5 for name in peaks
               if name.startswith("target_entropy."))


def test_output_comparison_runs_density_grid(monkeypatch):
    monkeypatch.syspath_prepend(str(_TOOLS))  # for its bench_pairs import
    runs = dict(load_tool("compare_outputs").runs(default=False))
    grids = {name: args for name, args in runs.items()
             if args[0] == "density-grid"}
    assert grids == {
        "density_grid_mixture_w0.2": [
            "density-grid", "--target", "mixture", "--outlier-weight", "0.2",
            "--bounds=-12,12,-12,12", "--res", "61",
            "--out", "density_grid_mixture_w0.2/grid.csv"],
        "density_grid_model": [
            "density-grid", "--target", "model", "--mu=0.5,-1.5",
            "--log-sigma=0.3,-0.4", "--bounds=-4,4,-5,3", "--res", "61",
            "--out", "density_grid_model/grid.csv"]}


def test_output_comparison_runs_a_sweep_whose_cells_all_fail(monkeypatch,
                                                             tmp_path):
    monkeypatch.syspath_prepend(str(_TOOLS))  # for its bench_pairs import
    tool = load_tool("compare_outputs")
    runs = dict(tool.runs(default=False))
    args = runs["exp4_overflow_seed0"]
    assert args == ["exp4", "--config", "overflow.json", "--seed", "0",
                    "--out", "exp4_overflow_seed0", "--dump-loss"]
    assert tool.CONFIGS["overflow.json"] == {
        "iterations": 3, "batch_size": 50, "learning_rate": 1e308}
    tool.run_matrix(tool.ROOT, tmp_path / "work",
                    [("exp4_overflow_seed0", args)])
    run = tmp_path / "work" / "exp4_overflow_seed0"
    assert (run / "stdout.txt").read_text().startswith("exit 1\n")
    rows = (run / "exp4.csv").read_text().splitlines()[1:]
    assert len(rows) == 12
    assert all(row.split(",")[4:10] == ["-1", "nan", "nan", "nan", "nan",
                                        "-1"] for row in rows)
