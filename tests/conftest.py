import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

import quadrature_oracle

# single-core container: wall-clock per example is noisy, so no deadlines
settings.register_profile(
    "default",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


@pytest.fixture
def fresh_python():
    """script -> its standard output, run by a fresh interpreter that
    imports srfe_lab from this checkout.  For measurements that belong to
    the whole process, such as page faults, which earlier tests move."""
    import srfe_lab
    src = str(Path(srfe_lab.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))

    def run(script):
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout
    return run


@pytest.fixture
def traced_peak_mb():
    """fn -> the most memory, in MiB, that fn() held at once above what was
    held when it was called, as tracemalloc sees it (numpy reports its
    array buffers to tracemalloc)."""
    def measure(fn):
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            fn()
            return (tracemalloc.get_traced_memory()[1] - before) / 2 ** 20
        finally:
            if not tracing:
                tracemalloc.stop()
    return measure


@pytest.fixture(scope="session")
def contaminated_target():
    """(grid, log density, entropy) of the benchmark mixture with outlier
    weight 0.2, on the reference grid."""
    grid = quadrature_oracle.Grid()
    log_p = quadrature_oracle.mixture_box_log_density(
        grid, quadrature_oracle.BENCH_MEANS, quadrature_oracle.BENCH_VARIANCE,
        quadrature_oracle.BENCH_WEIGHTS, outlier_weight=0.2)
    return grid, log_p, quadrature_oracle.entropy(grid, log_p)


@pytest.fixture(scope="session")
def contaminated_oracle(contaminated_target):
    """Exact free-energy minimizers for that target, one per exp4 tau:
    tau -> (Minimizer, entropy error).

    Each is the local minimizer that exact descent reaches from the
    training start, i.e. the point a fit with an unbiased gradient settles
    at.  At tau 0.5 and 0.99 it is also the lowest over starts at the
    modes; at tau 0.01 a lower one sits on the top mode (see
    test_quadrature_oracle.py).
    """
    grid, log_p, target_entropy = contaminated_target
    fits = {}
    for tau in (0.01, 0.5, 0.99):
        fit = quadrature_oracle.minimize_srfe(
            grid, log_p, tau, [quadrature_oracle.TRAIN_START])
        err = abs(quadrature_oracle.gaussian_entropy(fit.log_sigma)
                  - target_entropy)
        fits[tau] = (fit, err)
    return fits
