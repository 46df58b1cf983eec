"""Acceptance gate.

One test per shipping criterion, each printing its own pass/fail line (run
with -s to see them live; `pytest -v` shows the same verdict per test).
Experiment criteria share module-scoped runs of the benchmark
configurations, so this file takes several minutes end to end.
"""
import math
import time

import numpy as np
import pytest

import oracles
from srfe_lab.checks import (
    check_fisher_metric,
    check_gradient_identity,
    check_tail_bounds,
    dirichlet_pair,
)
from srfe_lab.cli import main as cli_main
from srfe_lab.discrete import (
    DiscreteDist,
    cr_associated,
    cr_expansion_prediction,
    cr_standard,
    escort,
    expansion_prediction,
    kl_upper_bound_gap,
    mixed_partial_probe,
    pythagorean_residual,
    srfe_discrete,
    variational_minimize,
    variational_objective,
)
from srfe_lab.estimators import exact_second_moment, srfe_mc_step
from srfe_lab.experiments import RunConfig, run_exp1, run_exp2, run_exp3, \
    run_exp4
from srfe_lab.gaussians import DiagonalGaussian, GaussianMixture

TAUS_9 = tuple(0.1 * k for k in range(1, 10))

BENCH = GaussianMixture(means=np.array([[-3.0, 0.0], [3.0, 0.0], [0.0, 4.0]]),
                        variance=0.5, weights=np.array([0.3, 0.3, 0.4]))


def _record(num: int, ok: bool, label: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}  criterion {num:02d}: {label}")


def _random_pairs(seed: int, count: int, max_size: int = 11):
    rng = np.random.default_rng(seed)
    return [dirichlet_pair(rng, int(rng.integers(2, max_size)))
            for _ in range(count)]


# ---------------------------------------------------------------------------
# deterministic / oracle criteria
# ---------------------------------------------------------------------------

def test_criterion_01_discrete_oracle_equivalence():
    t0 = time.perf_counter()
    worst = 0.0
    for p, q in _random_pairs(0, 1000):
        pl, ql = p.probs.tolist(), q.probs.tolist()
        for tau in TAUS_9:
            worst = max(
                worst,
                abs(srfe_discrete(p, q, tau) - oracles.srfe(pl, ql, tau)),
                abs(cr_associated(p, q, tau) - oracles.cr_assoc(pl, ql, tau)),
                abs(cr_standard(p, q, tau - 1.0)
                    - oracles.cr_standard(pl, ql, tau - 1.0)))
            r = escort(p, q, tau)
            rl = r.probs.tolist()
            worst = max(worst, max(abs(a - b) for a, b in
                                   zip(rl, oracles.escort_weights(pl, ql, tau))))
            worst = max(worst, abs(variational_objective(r, p, q, tau)
                                   - oracles.variational(rl, pl, ql, tau)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 5.0
    _record(1, ok, "discrete routines match the independent oracle")
    assert worst <= 1e-12, f"worst deviation {worst:.3e}"
    assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_criterion_02_variational_characterization():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    worst_l1, worst_val = 0.0, 0.0
    for p, q in _random_pairs(2, 100, max_size=9):
        tau = float(rng.uniform(0.1, 0.9))
        sol = variational_minimize(p, q, tau)
        worst_l1 = max(worst_l1,
                       float(np.abs(sol.argmin.probs
                                    - escort(p, q, tau).probs).sum()))
        worst_val = max(worst_val, abs(sol.value - srfe_discrete(p, q, tau)))
    elapsed = time.perf_counter() - t0
    ok = worst_l1 <= 1e-4 and worst_val <= 1e-6 and elapsed < 10.0
    _record(2, ok, "variational minimizer recovers the escort")
    assert worst_l1 <= 1e-4, f"worst L1 {worst_l1:.3e}"
    assert worst_val <= 1e-6, f"worst value gap {worst_val:.3e}"
    assert elapsed < 10.0, f"took {elapsed:.2f}s"


def test_criterion_03_pythagorean_identity():
    rng = np.random.default_rng(3)
    worst = 0.0
    for p, q in _random_pairs(4, 20, max_size=8):
        tau = float(rng.uniform(0.1, 0.9))
        for _ in range(100):
            r = DiscreteDist.from_unnormalized(rng.dirichlet(np.ones(p.size)))
            worst = max(worst, abs(pythagorean_residual(r, p, q, tau)))
    ok = worst <= 1e-10
    _record(3, ok, "three-point identity holds at the escort")
    assert ok, f"worst residual {worst:.3e}"


def test_criterion_04_local_curvature():
    reports = [check_fisher_metric(sigma) for sigma in (0.5, 1.0, 2.0)]
    ok = all(r.passed for r in reports)
    _record(4, ok, "location-family curvature equals the Fisher information")
    assert ok, "; ".join(f"{r.name}: {r.details}" for r in reports
                         if not r.passed)


def test_criterion_05_tail_bounds():
    violations = 0
    for p, q in _random_pairs(5, 50):
        report = check_tail_bounds(p, q)
        violations += int(report.observed[0])
    ok = violations == 0
    _record(5, ok, "surprisal tail probabilities never exceed their bounds")
    assert ok, f"{violations} grid violations"


def test_criterion_06_kl_upper_bound_gap():
    min_gap = math.inf
    for p, q in _random_pairs(6, 1000):
        for tau in TAUS_9:
            min_gap = min(min_gap, kl_upper_bound_gap(p, q, tau))
    ok = min_gap >= -1e-12
    _record(6, ok, "weighted KL always dominates the divergence")
    assert ok, f"min gap {min_gap:.3e}"


def test_criterion_07_gradient_identities():
    rng = np.random.default_rng(7)
    reports = []
    for _ in range(50):
        size = int(rng.integers(3, 7))
        p = DiscreteDist.from_unnormalized(rng.dirichlet(np.ones(size)))
        reports.append(check_gradient_identity(
            p, rng.standard_normal(size), float(rng.uniform(0.1, 0.9))))
    ok = all(r.passed for r in reports)
    _record(7, ok, "softmax-family closed-form gradients match")
    assert ok, "; ".join(r.details for r in reports if not r.passed)


def test_criterion_08_not_an_f_divergence():
    points = ((0.1, 0.4), (0.2, 0.3))  # same residual coordinate
    min_sep = min(
        abs(mixed_partial_probe(*points[0], tau)
            - mixed_partial_probe(*points[1], tau))
        for tau in (0.3, 0.5, 0.9))
    kl_sep = abs(mixed_partial_probe(*points[0], 0.5, divergence="kl")
                 - mixed_partial_probe(*points[1], 0.5, divergence="kl"))
    ok = min_sep > 1e-3 and kl_sep <= 1e-6
    _record(8, ok, "mixed partials separate equal-residual points")
    assert min_sep > 1e-3, f"separation {min_sep:.3e}"
    assert kl_sep <= 1e-6, f"KL control {kl_sep:.3e}"


def test_criterion_09_second_moment_bounds():
    rng = np.random.default_rng(9)
    ok_bounds = True
    for _ in range(30):
        size = int(rng.integers(2, 7))
        p = DiscreteDist.from_unnormalized(rng.dirichlet(np.ones(size)))
        z = rng.standard_normal(size)
        tau = float(rng.uniform(0.1, 0.9))
        for kind in ("cr", "srfe_escort", "srfe_q"):
            rep = exact_second_moment(kind, p, z, tau)
            ok_bounds &= rep.empirical <= rep.bound * (1 + 1e-12)

    # vanishing model mass on a heavy target point, at a weight where the
    # ratio-based moment must diverge while escort sampling stays bounded
    tau = 0.7
    p = DiscreteDist(np.array([0.4, 0.3, 0.2, 0.1]))
    cr_seq, ok_escort = [], True
    for k in range(2, 9):
        tiny = 10.0 ** -k
        z = np.log(np.array([tiny] + [(1 - tiny) / 3] * 3))
        cr_seq.append(exact_second_moment("cr", p, z, tau).empirical)
        esc = exact_second_moment("srfe_escort", p, z, tau)
        ok_escort &= esc.empirical <= esc.bound * (1 + 1e-12)
    ok_growth = all(b > a for a, b in zip(cr_seq, cr_seq[1:]))
    ok = ok_bounds and ok_growth and ok_escort
    _record(9, ok, "estimator second moments respect their bounds")
    assert ok_bounds, "an enumerated moment exceeded its bound"
    assert ok_growth, f"ratio-moment sequence not increasing: {cr_seq}"
    assert ok_escort, "escort moment left its C/tau^2 bound"


def test_criterion_10_expansion_rates():
    worst_lo, worst_hi = math.inf, -math.inf
    for p, q in _random_pairs(1, 20, max_size=8):
        for kind in ("forward", "reverse", "cr"):
            if kind == "cr":
                res = [abs(cr_standard(p, q, lam)
                           - cr_expansion_prediction(p, q, lam))
                       for lam in (0.02, 0.01)]
            else:
                tau_of = (lambda d: 1 - d) if kind == "forward" else \
                    (lambda d: d)
                res = [abs(srfe_discrete(p, q, tau_of(d))
                           - expansion_prediction(p, q, tau_of(d), kind))
                       for d in (0.02, 0.01)]
            ratio = res[0] / res[1]
            worst_lo = min(worst_lo, ratio)
            worst_hi = max(worst_hi, ratio)
    ok = worst_lo >= 3.0 and worst_hi <= 5.0
    _record(10, ok, "endpoint expansions converge at the quadratic rate")
    assert ok, f"halving ratios spanned [{worst_lo:.3f}, {worst_hi:.3f}]"


def test_criterion_11_pathwise_gradient():
    rng = np.random.default_rng(17)
    worst = 0.0
    h = 1e-5
    for _ in range(50):
        mu = rng.uniform(-2, 2, size=2)
        lsg = rng.uniform(-0.5, 0.5, size=2)
        tau = float(rng.uniform(0.1, 0.9))
        eps = rng.standard_normal((256, 2))
        g = srfe_mc_step(DiagonalGaussian(mu=mu, log_sigma=lsg), BENCH, tau,
                         eps)[1]
        vec = np.concatenate([g.d_mu, g.d_log_sigma])
        fd = []
        for field in (0, 1):
            for k in range(2):
                up = [mu.copy(), lsg.copy()]
                dn = [mu.copy(), lsg.copy()]
                up[field][k] += h
                dn[field][k] -= h
                fd.append((srfe_mc_step(DiagonalGaussian(*up), BENCH, tau,
                                        eps)[0].loss
                           - srfe_mc_step(DiagonalGaussian(*dn), BENCH, tau,
                                          eps)[0].loss) / (2 * h))
        worst = max(worst, float(np.linalg.norm(np.array(fd) - vec))
                    / max(float(np.linalg.norm(vec)), 1e-12))
    ok = worst <= 1e-4
    _record(11, ok, "sampled gradient matches matched-noise differences")
    assert ok, f"worst relative error {worst:.3e}"


def test_criterion_12_gaussian_closed_form():
    ls = math.log(math.sqrt(0.5))
    q = DiagonalGaussian(mu=np.zeros(2), log_sigma=np.full(2, ls))
    target = DiagonalGaussian(mu=np.array([1.0, 0.0]),
                              log_sigma=np.full(2, ls))
    eps = np.random.default_rng(11).standard_normal((100_000, 2))
    errors = [abs(srfe_mc_step(q, target, tau, eps)[0].loss - 1.0)
              for tau in (0.2, 0.5, 0.8)]
    ok = max(errors) <= 0.05
    _record(12, ok, "estimator tracks the equal-covariance closed form")
    assert ok, f"relative errors {errors}"


# ---------------------------------------------------------------------------
# experiment criteria
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def exp1(tmp_path_factory):
    t0 = time.perf_counter()
    res = run_exp1(RunConfig(out_dir=str(tmp_path_factory.mktemp("exp1"))))
    return res, time.perf_counter() - t0


@pytest.fixture(scope="module")
def exp2(tmp_path_factory):
    return run_exp2(RunConfig(out_dir=str(tmp_path_factory.mktemp("exp2"))))


@pytest.fixture(scope="module")
def exp3(tmp_path_factory):
    return run_exp3(RunConfig(out_dir=str(tmp_path_factory.mktemp("exp3"))))


@pytest.fixture(scope="module")
def exp4(tmp_path_factory):
    return run_exp4(RunConfig(out_dir=str(tmp_path_factory.mktemp("exp4"))))


def test_criterion_13_objective_comparison(exp1):
    result, elapsed = exp1
    rows = {r.method if r.tau is None else f"srfe_{r.tau:g}": r
            for r in result.rows}
    problems = []
    if rows["forward_kl"].metrics.mode_coverage != 3:
        problems.append(
            f"forward KL coverage {rows['forward_kl'].metrics.mode_coverage}")
    if rows["reverse_kl"].metrics.mode_coverage != 2:
        problems.append(
            f"reverse KL coverage {rows['reverse_kl'].metrics.mode_coverage}")
    if rows["srfe_0.1"].metrics.mode_coverage != 1:
        problems.append(
            f"tau 0.1 coverage {rows['srfe_0.1'].metrics.mode_coverage}")
    for tau in (0.3, 0.5, 0.7, 0.9):
        row = rows[f"srfe_{tau:g}"]
        if row.metrics.mode_coverage != 3:
            problems.append(f"tau {tau} coverage {row.metrics.mode_coverage}")
        if not -4.6 <= row.metrics.test_log_lik <= -4.4:
            problems.append(f"tau {tau} log-lik {row.metrics.test_log_lik:.3f}")
    if rows["srfe_0.1"].metrics.test_log_lik >= -15.0:
        problems.append(
            f"tau 0.1 log-lik {rows['srfe_0.1'].metrics.test_log_lik:.3f}")
    if elapsed >= 120.0:
        problems.append(f"runtime {elapsed:.0f}s")
    ok = not problems
    _record(13, ok, "objective comparison lands in the expected bands")
    assert ok, "; ".join(problems)


def test_criterion_14_weight_sweep(exp2):
    problems = []
    for agg in exp2.aggregate:
        want = 1.0 if agg.tau <= 0.2 else 3.0
        if agg.mean.mode_coverage != want or agg.std.mode_coverage != 0.0:
            problems.append(
                f"tau {agg.tau:g}: coverage {agg.mean.mode_coverage}"
                f" +- {agg.std.mode_coverage}")
        if agg.tau == 0.5 and not 1900.0 <= agg.mean.ess <= 2300.0:
            problems.append(f"tau 0.5 ESS {agg.mean.ess:.0f}")
    ok = not problems
    _record(14, ok, "weight sweep reproduces the coverage transition")
    assert ok, "; ".join(problems)


def test_criterion_15_schedule_comparison(exp3):
    rows = {r.schedule: r for r in exp3.rows}
    problems = []
    low = rows["fixed_0.01"].metrics
    if low.mode_coverage != 2:
        problems.append(f"fixed 0.01 coverage {low.mode_coverage}")
    if not 0.35 <= low.entropy_error <= 0.6:
        problems.append(f"fixed 0.01 entropy error {low.entropy_error:.3f}")
    for name, row in rows.items():
        if name != "fixed_0.01" and row.metrics.mode_coverage != 3:
            problems.append(f"{name} coverage {row.metrics.mode_coverage}")
    history = exp3.histories["fixed_0.99"]
    settled = float(history[-100:].mean())
    spike = float(history[:500].max())
    if not spike > 3.0 * settled:
        problems.append(f"no early spike: max {spike:.1f} vs settled "
                        f"{settled:.1f}")
    ok = not problems
    _record(15, ok, "schedule comparison including the instability witness")
    assert ok, "; ".join(problems)


def test_criterion_16_contamination_robustness(exp4, contaminated_oracle):
    rows = {(r.outlier_weight, r.tau): r.metrics for r in exp4.rows}
    final_loss = {(r.outlier_weight, r.tau): r.final_loss for r in exp4.rows}
    problems = []
    for tau in (0.01, 0.5, 0.99):
        cover = rows[(0.0, tau)].mode_coverage
        want = 2 if tau == 0.01 else 3
        if cover != want:
            problems.append(f"clean tau {tau:g} coverage {cover} != {want}")
    for (w, tau), metrics in rows.items():
        if w >= 0.1 and metrics.mode_coverage != 3:
            problems.append(
                f"w {w:g} tau {tau:g} coverage {metrics.mode_coverage}")
    # At w = 0.2 each fit should settle where exact descent on the
    # divergence settles from the same start (tests/quadrature_oracle.py).
    # 0.25 nats is above the largest gap an unbiased gradient leaves on the
    # clean target.  ESS and final loss show a run stuck at the clamp.
    report = []
    for tau in (0.01, 0.5, 0.99):
        metrics = rows[(0.2, tau)]
        _, want = contaminated_oracle[tau]
        gap = abs(metrics.entropy_error - want)
        report.append(
            f"w 0.2 tau {tau:g}: entropy error {metrics.entropy_error:.3f}"
            f" vs oracle {want:.3f}, gap {gap:.2f}, ESS {metrics.ess:.1f},"
            f" final loss {final_loss[(0.2, tau)]:.2f}")
        if not gap <= 0.25:
            problems.append(f"w 0.2 tau {tau:g} entropy-error gap {gap:.2f}"
                            " > 0.25")
    ok = not problems
    _record(16, ok, "contamination sweep matches the expected bands")
    assert ok, "; ".join(problems) + "\n" + "\n".join(report)


def test_criterion_17_verification_battery(capsys):
    t0 = time.perf_counter()
    code = cli_main(["verify"])
    elapsed = time.perf_counter() - t0
    captured = capsys.readouterr().out
    ok = code == 0 and elapsed < 60.0
    _record(17, ok, "verification battery is green inside a minute")
    assert code == 0, captured
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
