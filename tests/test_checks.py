"""The verification battery: full run must be green, the negative control
must stay red, and individual probes behave sensibly on edge inputs."""
import math

import numpy as np
import pytest

from srfe_lab import checks
from srfe_lab.checks import (
    A_GRID_31,
    TAU_GRID_9,
    CheckReport,
    check_expansions,
    check_fisher_metric,
    check_fisher_metric_simplex,
    check_gradient_identity,
    check_kl_limits,
    check_kl_upper_bounds,
    check_monotone_equivalence,
    check_not_f_divergence,
    check_second_moment_bounds,
    check_tail_bounds,
    check_tail_bounds_mc,
    dirichlet_pair,
    run_all,
)
from srfe_lab.discrete import (
    DiscreteDist,
    cr_associated,
    monotone_map,
    srfe_discrete,
    tail_bound,
)
from srfe_lab.gaussians import BLOCK_ROWS, DiagonalGaussian, srfe_equal_covariance

PAIR = (DiscreteDist(np.array([0.5, 0.5])), DiscreteDist(np.array([0.25, 0.75])))


@pytest.fixture(scope="module")
def battery():
    return run_all(seed=0)


class TestRunAll:
    def test_every_check_passes(self, battery):
        failed = [r.name for r in battery if not r.passed]
        assert failed == []

    def test_report_inventory(self, battery):
        names = [r.name for r in battery]
        assert len(names) == len(set(names))
        assert len(names) >= 9
        for expected in ("kl_limits", "expansions", "fisher_metric_sigma_1",
                         "fisher_metric_simplex", "tail_bounds",
                         "tail_bounds_mc", "kl_upper_bounds",
                         "gradient_identity", "monotone_equivalence",
                         "not_f_divergence_tau_0.5", "second_moment_bounds"):
            assert expected in names

    def test_reports_serialize(self, battery):
        for r in battery:
            d = r.to_dict()
            assert set(d) == {"name", "passed", "observed", "threshold",
                              "details"}
            assert all(isinstance(x, float) for x in d["observed"])
            assert isinstance(d["details"], str)

    def test_negative_control_fails(self):
        reports = run_all(seed=0, inject_failure=True)
        by_name = {r.name: r for r in reports}
        assert not by_name["injected_failure"].passed
        others = [r for r in reports if r.name != "injected_failure"]
        assert all(r.passed for r in others)


class TestIndividualChecks:
    def test_kl_limits_on_worked_pair(self):
        r = check_kl_limits(*PAIR)
        assert r.passed
        assert r.name == "kl_limits"

    def test_kl_limits_degenerate_pair(self):
        p = DiscreteDist(np.array([0.4, 0.6]))
        assert check_kl_limits(p, p).passed

    def test_expansions(self):
        assert check_expansions(*PAIR).passed

    def test_fisher_tolerance_is_live(self):
        assert check_fisher_metric(1.0).passed

    def test_fisher_simplex(self):
        assert check_fisher_metric_simplex().passed

    def test_tail_bounds_single_pair(self):
        r = check_tail_bounds(*PAIR)
        assert r.passed
        assert r.observed[0] == 0  # violation count

    def test_kl_upper_bounds_small_batch(self):
        rng = np.random.default_rng(12)
        p, q = dirichlet_pair(rng, 4, n=50)
        assert check_kl_upper_bounds(p, q).passed

    def test_gradient_identity_instance(self):
        p = DiscreteDist(np.array([0.2, 0.3, 0.5]))
        r = check_gradient_identity(p, np.array([0.1, -0.4, 0.3]), 0.6)
        assert r.passed

    def test_monotone_equivalence_small(self):
        assert check_monotone_equivalence(seed=3).passed

    def test_battery_builds_few_distributions(self, monkeypatch):
        built = []
        validate = DiscreteDist.__post_init__
        normalize = DiscreteDist.from_unnormalized

        def counting(dist):
            built.append(dist.probs.shape)
            validate(dist)

        def counting_normalize(cls, weights):
            dist = normalize(weights)
            built.append(dist.probs.shape)
            return dist

        monkeypatch.setattr(DiscreteDist, "__post_init__", counting)
        # from_unnormalized builds without __post_init__
        monkeypatch.setattr(DiscreteDist, "from_unnormalized",
                            classmethod(counting_normalize))
        assert check_monotone_equivalence(seed=3).passed
        # the triples go in as one batch per block, not 30000
        assert len(built) <= 2 * math.ceil(10 ** 4 / (BLOCK_ROWS // 4))
        built.clear()
        assert all(r.passed for r in run_all(seed=0))
        assert len(built) <= 100

    def test_not_f_divergence_names_and_result(self):
        for tau in (0.3, 0.5, 0.9):
            r = check_not_f_divergence(tau)
            assert r.passed
            assert r.name == f"not_f_divergence_tau_{tau:g}"

    def test_second_moment_bounds(self):
        p = DiscreteDist(np.array([0.25, 0.25, 0.25, 0.25]))
        assert check_second_moment_bounds(p, np.array([0.5, 0.0, -0.5, 0.2])).passed

    def test_dirichlet_pair_shapes(self):
        p, q = dirichlet_pair(np.random.default_rng(0), 7)
        assert p.size == q.size == 7
        assert p.probs.sum() == pytest.approx(1.0, abs=1e-12)


def one_shot_tail_bounds_mc(seed):
    """check_tail_bounds_mc's report as one pass over all 10^6 draws: the
    whole gap array drawn, sorted and searched at once."""
    mean_shift, variance, n = 1.0, 0.5, 10 ** 6
    log_sigma = np.array([0.5 * np.log(variance)])
    p = DiagonalGaussian(np.array([mean_shift]), log_sigma)
    q = DiagonalGaussian(np.array([0.0]), log_sigma)
    x = q.sample(n, np.random.default_rng(seed))
    gaps = np.sort(p.log_prob(x) - q.log_prob(x))
    a = np.asarray(A_GRID_31)
    freq = (n - np.searchsorted(gaps, a, side="left")) / n
    slack = 4.0 * np.sqrt(freq * (1.0 - freq) / n)
    tau = np.asarray(TAU_GRID_9)[:, None]
    log_f = -tau * (1.0 - tau) * srfe_equal_covariance(p.mu, q.mu, variance)
    margin = freq - np.exp(-tau * a + log_f) - slack
    violations = int((margin > 0).sum())
    return CheckReport(
        "tail_bounds_mc", violations == 0, np.array([float(violations)]),
        np.array([0.0]),
        f"normal pair shift {mean_shift}, variance {variance}, n={n}: "
        f"{violations} violations, worst margin {float(margin.max()):.3e}",
    ).to_dict()


class TestTailBoundsMc:
    @pytest.mark.parametrize("seed", range(5))
    def test_blocked_check_reports_the_one_shot_check(self, seed):
        assert check_tail_bounds_mc(seed).to_dict() == \
            one_shot_tail_bounds_mc(seed)

    def test_holds_one_block_of_draws(self, traced_peak_mb):
        # the one-shot pass held about 30 MiB: 10^6 draws, their gaps and
        # the sorted copy
        assert traced_peak_mb(lambda: check_tail_bounds_mc(1)) < 8.0


class TestTailLevelsInDrawSpace:
    """check_tail_bounds_mc counts standard normal draws below the levels
    z_a = (a v / shift + shift / 2) / sqrt(v); the one-shot reference
    compares the log_prob gap of x = sigma z with a."""

    a = np.asarray(A_GRID_31)
    z_levels = (a * 0.5 / 1.0 + 0.5 * 1.0) / np.sqrt(0.5)

    @staticmethod
    def log_prob_gap(z):
        log_sigma = np.array([0.5 * np.log(0.5)])
        p = DiagonalGaussian(np.array([1.0]), log_sigma)
        q = DiagonalGaussian(np.array([0.0]), log_sigma)
        x = q.transform(np.asarray(z)[:, None])
        return p.log_prob(x) - q.log_prob(x)

    def test_gap_at_each_level_is_the_level(self):
        err = np.abs(self.log_prob_gap(self.z_levels) - self.a)
        # measured at most 2 eps
        assert np.all(err <= 4 * np.finfo(float).eps * np.maximum(1.0, np.abs(self.a)))

    @pytest.mark.parametrize("steps", [4, 64])
    def test_draws_beside_a_level_count_as_their_gap_compares(self, steps):
        # steps of the spacing at max(|z_a|, 1), the scale of the gap's own
        # rounding: one nextafter step of z is narrower than that rounding at
        # most levels, and at a = -1, where z_a = 0, it is subnormal
        step = steps * np.spacing(np.maximum(np.abs(self.z_levels), 1.0))
        for z in (self.z_levels - step, self.z_levels + step):
            block = np.sort(z)
            counted = np.searchsorted(block, self.z_levels, side="left")
            gaps = np.sort(self.log_prob_gap(block))
            assert counted.tolist() == np.searchsorted(gaps, self.a, side="left").tolist()


def one_shot_monotone_equivalence(seed):
    """check_monotone_equivalence's report as one pass over all 10^4
    triples: every triple drawn and evaluated at once."""
    n_pairs, tau = 10 ** 4, 0.5
    draws = np.random.default_rng(seed).dirichlet(np.ones(5), size=(n_pairs, 3))
    p = DiscreteDist.from_unnormalized(draws[:, :1])
    q = DiscreteDist.from_unnormalized(draws[:, 1:])
    s = srfe_discrete(p, q, tau)
    d = cr_associated(p, q, tau)
    ds, dd = s[:, 0] - s[:, 1], d[:, 0] - d[:, 1]
    distinct = np.abs(dd) > 1e-12 * np.maximum(1.0, np.abs(d).max(axis=1))
    disagreements = int(np.sum(distinct & (ds * dd < 0)))
    worst_map = float(np.max(np.abs(monotone_map(d, tau) - s), initial=0.0))
    return CheckReport(
        "monotone_equivalence", disagreements == 0 and worst_map <= 1e-12,
        np.array([float(disagreements), worst_map]), np.array([0.0, 1e-12]),
        f"{n_pairs} random triples at weight {tau}: {disagreements} order "
        f"disagreements; worst |map(cr) - value| {worst_map:.2e}",
    ).to_dict()


class TestMonotoneEquivalence:
    @pytest.mark.parametrize("seed", range(5))
    def test_blocked_check_reports_the_one_shot_check(self, seed):
        assert check_monotone_equivalence(seed).to_dict() == \
            one_shot_monotone_equivalence(seed)

    def test_holds_one_block_of_triples(self, traced_peak_mb):
        # the one-shot pass held about 5.7 MiB
        assert traced_peak_mb(lambda: check_monotone_equivalence(0)) < 2.5


def test_battery_holds_a_small_working_set(traced_peak_mb):
    # about 5.8 MiB when the monotone check held all its triples at once
    assert traced_peak_mb(lambda: run_all(0)) < 3.0


def test_stack_by_size_keeps_every_case_in_order():
    sizes = [3, 5, 3, 4, 5, 3]
    cases = [(np.full(k, float(i)), float(i)) for i, k in enumerate(sizes)]
    groups = checks._stack_by_size(cases)
    assert [g[0].shape for g in groups] == [(3, 3), (2, 5), (1, 4)]
    assert [g[1].tolist() for g in groups] == [[0, 2, 5], [1, 4], [3]]
    assert [g[0][:, 0].tolist() for g in groups] == [[0, 2, 5], [1, 4], [3]]


def _worst_margin(report):
    return float(report.details.rsplit(" ", 1)[1])


class TestBatchedChecks:
    """A batch of instances gives the report its one-instance calls give
    together: the errors' column maxima, the summed violation count."""

    @pytest.mark.parametrize("m", [1, 7])
    @pytest.mark.parametrize("k", range(2, 9))
    def test_gradient_identity_batch_is_its_rows(self, k, m):
        rng = np.random.default_rng(100 * k + m)
        probs = rng.dirichlet(np.ones(k), size=m)
        logits = rng.standard_normal((m, k))
        tau = rng.uniform(0.1, 0.9, size=m)
        singles = [check_gradient_identity(DiscreteDist(probs[i]), logits[i],
                                           float(tau[i])) for i in range(m)]
        for i, single in enumerate(singles):
            row = check_gradient_identity(DiscreteDist(probs[i:i + 1]),
                                          logits[i:i + 1], tau[i:i + 1])
            assert row.to_dict() == single.to_dict()
        batch = check_gradient_identity(DiscreteDist(probs), logits, tau)
        worst = np.max([r.observed for r in singles], axis=0)
        assert batch.observed.tobytes() == worst.tobytes()
        assert batch.passed == all(r.passed for r in singles)
        assert batch.passed

    @pytest.mark.parametrize("bound_scale", [1.0, 0.1])
    @pytest.mark.parametrize("m", [1, 7])
    @pytest.mark.parametrize("k", range(2, 9))
    def test_tail_bounds_batch_is_its_rows(self, k, m, bound_scale, monkeypatch):
        # a shrunken bound makes violations to count
        monkeypatch.setattr(checks, "tail_bound",
                            lambda *args: bound_scale * tail_bound(*args))
        p, q = dirichlet_pair(np.random.default_rng(100 * k + m), k, n=m)
        singles = [check_tail_bounds(DiscreteDist(p.probs[i]),
                                     DiscreteDist(q.probs[i])) for i in range(m)]
        for i, single in enumerate(singles):
            row = check_tail_bounds(DiscreteDist(p.probs[i:i + 1]),
                                    DiscreteDist(q.probs[i:i + 1]))
            assert row.to_dict() == single.to_dict()
        batch = check_tail_bounds(p, q)
        violations = sum(int(r.observed[0]) for r in singles)
        assert batch.observed.tolist() == [violations]
        assert batch.passed == (violations == 0)
        assert _worst_margin(batch) == max(map(_worst_margin, singles))
        if bound_scale == 1.0:
            assert violations == 0
        elif k > 2:
            assert violations > 0


def test_report_is_frozen():
    r = CheckReport(name="x", passed=True, observed=np.array([1.0]),
                    threshold=np.array([2.0]), details="d")
    with pytest.raises(AttributeError):
        r.passed = False
