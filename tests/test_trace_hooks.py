"""The benchmark tracer (perfbench/bench_trace.py) wraps package functions
by the names their callers look them up by.  A rename under src/ that
drops one of those names must fail here too, not only in the benchmark's
own tests."""
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_trace_installs_on_this_source_tree():
    code = ("import sys; sys.path[:0] = sys.argv[1:3]; "
            "import bench_trace, srfe_lab; bench_trace.install(); "
            "print(srfe_lab.__file__)")
    src = ROOT / "src"
    proc = subprocess.run(
        [sys.executable, "-c", code, str(src), str(ROOT / "perfbench")],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert Path(proc.stdout.strip()).is_relative_to(src)
