"""Discrete core: worked values frozen from a 50-digit scalar oracle,
dual-route equivalence on random pairs, and the family's structural
properties as hypothesis tests."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import kl_mixed_partial_analytic, srfe_mixed_partial_analytic
from srfe_lab.checks import TAU_GRID_9, dirichlet_pair
from srfe_lab.discrete import (
    AbsoluteContinuityError,
    DiscreteDist,
    DisjointSupportError,
    chernoff_coefficient,
    cr_associated,
    cr_expansion_prediction,
    cr_standard,
    escort,
    exact_tail_prob,
    expansion_prediction,
    kl_discrete,
    kl_upper_bound_gap,
    mixed_partial_probe,
    monotone_map,
    pythagorean_residual,
    srfe_discrete,
    surprisal_stats,
    tail_bound,
    variational_minimize,
    variational_objective,
)

PAIR_A = (DiscreteDist(np.array([0.5, 0.5])), DiscreteDist(np.array([0.25, 0.75])))
PAIR_B = (DiscreteDist(np.array([0.2, 0.3, 0.5])),
          DiscreteDist(np.array([0.5, 0.25, 0.25])))


def random_pair(rng, size):
    return (DiscreteDist.from_unnormalized(rng.dirichlet(np.ones(size))),
            DiscreteDist.from_unnormalized(rng.dirichlet(np.ones(size))))


weights = st.lists(st.floats(1e-3, 1.0), min_size=2, max_size=8)
taus = st.floats(0.05, 0.95)


def dist_of(ws):
    return DiscreteDist.from_unnormalized(np.asarray(ws))


@st.composite
def stacked_triples(draw):
    """Weights for m stacked (p, q, r) triples on k points, one tau per row.

    The three rows of a triple share a support with zero-mass entries, so
    every kernel, the KL-based ones included, is defined on every row.
    """
    m = draw(st.integers(1, 4))
    k = draw(st.integers(2, 6))
    support = np.array(draw(st.lists(st.booleans(), min_size=m * k,
                                     max_size=m * k))).reshape(m, k)
    support[~support.any(axis=1), 0] = True

    def rows():
        w = draw(st.lists(st.floats(1e-3, 1.0), min_size=m * k, max_size=m * k))
        return np.where(support, np.reshape(w, (m, k)), 0.0)

    tau = np.array(draw(st.lists(taus, min_size=m, max_size=m)))
    return rows(), rows(), rows(), tau


# every broadcasting kernel as f(p, q, r, tau); the batch tau has one entry
# per row, and a and lam are derived from it
BROADCASTING_KERNELS = {
    "chernoff_coefficient": lambda p, q, r, t: chernoff_coefficient(p, q, t),
    "srfe_discrete": lambda p, q, r, t: srfe_discrete(p, q, t),
    "cr_associated": lambda p, q, r, t: cr_associated(p, q, t),
    "cr_standard_negative": lambda p, q, r, t: cr_standard(p, q, t - 1.0),
    "cr_standard_positive": lambda p, q, r, t: cr_standard(p, q, t),
    "kl_discrete": lambda p, q, r, t: kl_discrete(p, q),
    "surprisal_stats.mean": lambda p, q, r, t: surprisal_stats(p, q).mean,
    "surprisal_stats.variance": lambda p, q, r, t: surprisal_stats(p, q).variance,
    "escort": lambda p, q, r, t: escort(p, q, t).probs,
    "variational_objective": lambda p, q, r, t: variational_objective(r, p, q, t),
    "pythagorean_residual": lambda p, q, r, t: pythagorean_residual(r, p, q, t),
    "tail_bound": lambda p, q, r, t: tail_bound(p, q, t, 0.2),
    "exact_tail_prob": lambda p, q, r, t: exact_tail_prob(p, q, t - 0.5),
    "kl_upper_bound_gap": lambda p, q, r, t: kl_upper_bound_gap(p, q, t),
    "expansion_prediction.forward":
        lambda p, q, r, t: expansion_prediction(p, q, t, "forward"),
    "expansion_prediction.reverse":
        lambda p, q, r, t: expansion_prediction(p, q, t, "reverse"),
    "cr_expansion_prediction":
        lambda p, q, r, t: cr_expansion_prediction(p, q, t - 0.5),
    "monotone_map": lambda p, q, r, t: monotone_map(cr_associated(p, q, t), t),
}


class TestWorkedValues:
    # frozen from the scalar oracle at 50-digit precision

    def test_overlap_and_value_pair_a(self):
        p, q = PAIR_A
        assert chernoff_coefficient(p, q, 0.5) == pytest.approx(
            0.96592582628906829, abs=1e-15)
        assert srfe_discrete(p, q, 0.5) == pytest.approx(
            0.13867292839014782, abs=1e-14)
        assert srfe_discrete(p, q, 0.3) == pytest.approx(
            0.13579057676038136, abs=1e-14)

    def test_power_divergence_pair_a(self):
        p, q = PAIR_A
        assert cr_associated(p, q, 0.5) == pytest.approx(
            0.13629669484372685, abs=1e-14)
        # order tau - 1 reproduces the associated form exactly
        assert cr_standard(p, q, -0.5) == pytest.approx(
            0.13629669484372685, abs=1e-14)

    def test_escort_pair_a(self):
        p, q = PAIR_A
        np.testing.assert_allclose(
            escort(p, q, 0.5).probs,
            [0.36602540378443865, 0.63397459621556135], atol=1e-15)
        np.testing.assert_allclose(
            escort(p, q, 0.3).probs,
            [0.31668927659455397, 0.68331072340544603], atol=1e-15)

    def test_kl_and_surprisal_pair_a(self):
        p, q = PAIR_A
        assert kl_discrete(p, q) == pytest.approx(0.14384103622589046, abs=1e-15)
        assert kl_discrete(q, p) == pytest.approx(0.13081203594113696, abs=1e-15)
        stats = surprisal_stats(p, q)
        assert stats.mean == pytest.approx(0.14384103622589046, abs=1e-15)
        assert stats.variance == pytest.approx(0.30173724020314549, abs=1e-14)

    def test_variational_pair_a(self):
        p, q = PAIR_A
        r = escort(p, q, 0.5)
        assert variational_objective(r, p, q, 0.5) == pytest.approx(
            0.13867292839014782, abs=1e-14)
        assert variational_objective(p, p, q, 0.5) == pytest.approx(
            0.28768207245178093, abs=1e-14)
        assert variational_objective(q, p, q, 0.5) == pytest.approx(
            0.26162407188227392, abs=1e-14)

    def test_gap_pair_a(self):
        p, q = PAIR_A
        assert kl_upper_bound_gap(p, q, 0.3) == pytest.approx(
            0.051083760298385724, abs=1e-14)

    def test_tail_pair_a(self):
        p, q = PAIR_A
        assert tail_bound(p, q, 0.6, 0.2) == pytest.approx(
            0.85762425991294381, abs=1e-14)
        # only the first point has surprisal gap log 2 >= 0.2
        assert exact_tail_prob(p, q, 0.2) == 0.25
        assert exact_tail_prob(p, q, 10.0) == 0.0

    def test_monotone_map_pair_a(self):
        p, q = PAIR_A
        assert monotone_map(cr_associated(p, q, 0.5), 0.5) == pytest.approx(
            srfe_discrete(p, q, 0.5), abs=1e-15)

    def test_pair_b(self):
        p, q = PAIR_B
        assert chernoff_coefficient(p, q, 0.7) == pytest.approx(
            0.95343438334468742, abs=1e-15)
        assert srfe_discrete(p, q, 0.7) == pytest.approx(
            0.22706987113417044, abs=1e-14)
        assert cr_standard(p, q, -0.3) == pytest.approx(
            0.22174103169196468, abs=1e-14)
        np.testing.assert_allclose(
            escort(p, q, 0.7).probs,
            [0.27613482948167109, 0.29790381935181215, 0.42596135116651677],
            atol=1e-15)
        assert kl_discrete(p, q) == pytest.approx(0.21801191094332803, abs=1e-15)


class TestOracleEquivalence:
    def test_random_pairs_match_scalar_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            size = int(rng.integers(2, 11))
            p, q = random_pair(rng, size)
            pl, ql = p.probs.tolist(), q.probs.tolist()
            for tau in (0.1, 0.3, 0.5, 0.7, 0.9):
                assert srfe_discrete(p, q, tau) == pytest.approx(
                    oracles.srfe(pl, ql, tau), abs=1e-12)
                assert cr_associated(p, q, tau) == pytest.approx(
                    oracles.cr_assoc(pl, ql, tau), abs=1e-12)
                assert cr_standard(p, q, tau - 1.0) == pytest.approx(
                    oracles.cr_standard(pl, ql, tau - 1.0), abs=1e-12)
                np.testing.assert_allclose(
                    escort(p, q, tau).probs,
                    oracles.escort_weights(pl, ql, tau), atol=1e-12)
            r = escort(p, q, 0.5)
            assert variational_objective(r, p, q, 0.5) == pytest.approx(
                oracles.variational(r.probs.tolist(), pl, ql, 0.5), abs=1e-12)


class TestProperties:
    @given(weights, weights, taus)
    def test_overlap_in_unit_interval(self, wp, wq, tau):
        n = min(len(wp), len(wq))
        p, q = dist_of(wp[:n]), dist_of(wq[:n])
        f = chernoff_coefficient(p, q, tau)
        assert 0.0 < f <= 1.0 + 1e-12

    @given(weights, taus)
    def test_identical_pair_is_zero(self, ws, tau):
        p = dist_of(ws)
        assert chernoff_coefficient(p, p, tau) == pytest.approx(1.0, abs=1e-12)
        assert abs(srfe_discrete(p, p, tau)) <= 1e-12

    @given(weights, weights, taus)
    def test_nonnegative_and_skew_symmetric(self, wp, wq, tau):
        n = min(len(wp), len(wq))
        p, q = dist_of(wp[:n]), dist_of(wq[:n])
        v = srfe_discrete(p, q, tau)
        assert v >= -1e-12
        assert v == pytest.approx(srfe_discrete(q, p, 1.0 - tau), rel=1e-10)

    @given(weights, weights, taus)
    def test_monotone_map_carries_cr_to_value(self, wp, wq, tau):
        n = min(len(wp), len(wq))
        p, q = dist_of(wp[:n]), dist_of(wq[:n])
        assert monotone_map(cr_associated(p, q, tau), tau) == pytest.approx(
            srfe_discrete(p, q, tau), rel=1e-10, abs=1e-12)

    @given(weights, weights, taus)
    def test_gap_nonnegative(self, wp, wq, tau):
        n = min(len(wp), len(wq))
        p, q = dist_of(wp[:n]), dist_of(wq[:n])
        assert kl_upper_bound_gap(p, q, tau) >= -1e-12

    @given(weights, weights, taus)
    def test_escort_normalized(self, wp, wq, tau):
        n = min(len(wp), len(wq))
        p, q = dist_of(wp[:n]), dist_of(wq[:n])
        r = escort(p, q, tau)
        assert r.probs.sum() == pytest.approx(1.0, abs=1e-12)

    @given(weights, weights, weights, taus)
    @settings(max_examples=50)
    def test_pythagorean_identity(self, wp, wq, wr, tau):
        n = min(len(wp), len(wq), len(wr))
        p, q, r = dist_of(wp[:n]), dist_of(wq[:n]), dist_of(wr[:n])
        assert abs(pythagorean_residual(r, p, q, tau)) <= 1e-10

    @given(weights, weights, taus)
    def test_variational_minimum_at_escort(self, wp, wq, tau):
        n = min(len(wp), len(wq))
        p, q = dist_of(wp[:n]), dist_of(wq[:n])
        r = escort(p, q, tau)
        assert variational_objective(r, p, q, tau) == pytest.approx(
            srfe_discrete(p, q, tau), rel=1e-10, abs=1e-12)


class TestBroadcasting:
    @given(stacked_triples())
    @settings(max_examples=60)
    def test_batch_matches_per_pair_calls(self, case):
        wp, wq, wr, tau = case
        batch = [dist_of(w) for w in (wp, wq, wr)]
        singles = [[DiscreteDist(d.probs[i]) for d in batch]
                   for i in range(tau.size)]
        for name, kernel in BROADCASTING_KERNELS.items():
            stacked = kernel(*batch, tau)
            for i, (p, q, r) in enumerate(singles):
                one = kernel(p, q, r, float(tau[i]))
                if name != "escort":
                    assert type(one) is float, name
                np.testing.assert_allclose(stacked[i], one, rtol=1e-15,
                                           atol=1e-15, err_msg=name)

    def test_scalar_argument_broadcasts_over_the_batch(self):
        p, q = PAIR_B
        tau = np.array([0.2, 0.5, 0.8])
        np.testing.assert_array_equal(
            srfe_discrete(p, q, tau[:, None] * np.ones(2)),
            [[srfe_discrete(p, q, float(t))] * 2 for t in tau])

    def test_shapes_that_differ_broadcast_together(self):
        # one p against a batch of q with a zero entry, at a column of
        # weights: the result has the shape of all three together
        p = PAIR_B[0]
        q = DiscreteDist(np.array([[0.5, 0.25, 0.25], [0.0, 0.4, 0.6]]))
        tau = np.array([0.2, 0.5, 0.8])[:, None]
        for kernel in (chernoff_coefficient, srfe_discrete, cr_associated):
            np.testing.assert_array_equal(
                kernel(p, q, tau),
                [[kernel(p, DiscreteDist(row), float(t)) for row in q.probs]
                 for t in tau[:, 0]])

    def test_a_batch_holds_its_terms_and_one_product(self, traced_peak_mb):
        # verify's kl_upper_bounds batch: 1000 pairs on 6 points at 9
        # weights, a (9, 1000, 6) buffer of 0.41 MiB.  The log terms are
        # built in one such buffer, beside which only (1 - tau) log q is
        # batch-sized, and reduced in place: 0.92 MiB (2.2 buffers, with
        # log p, log q and the (9, 1000) results).  Separate arrays for
        # tau log p, (1 - tau) log q, the masked terms and the shifted
        # copy held 1.03 MiB (2.5 buffers); the bound sits between the two
        p, q = dirichlet_pair(np.random.default_rng(0), 6, n=1000)
        tau = np.asarray(TAU_GRID_9)[:, None]
        srfe_discrete(p, q, tau)
        assert traced_peak_mb(lambda: srfe_discrete(p, q, tau)) < 0.97

    def test_one_disjoint_row_raises(self):
        p = DiscreteDist(np.array([[0.5, 0.5], [1.0, 0.0], [0.2, 0.8]]))
        q = DiscreteDist(np.array([[0.5, 0.5], [0.0, 1.0], [0.6, 0.4]]))
        np.testing.assert_array_equal(chernoff_coefficient(p, q, 0.5) == 0.0,
                                      [False, True, False])
        for kernel in (srfe_discrete, escort,
                       lambda p, q, tau: tail_bound(p, q, tau, 0.1)):
            with pytest.raises(DisjointSupportError):
                kernel(p, q, 0.5)

    def test_one_row_without_absolute_continuity_raises(self):
        p = DiscreteDist(np.array([[0.5, 0.5], [0.5, 0.5], [0.3, 0.7]]))
        q = DiscreteDist(np.array([[0.25, 0.75], [1.0, 0.0], [0.6, 0.4]]))
        for kernel in (kl_discrete, surprisal_stats,
                       lambda p, q: cr_standard(p, q, 0.5),
                       lambda p, q: kl_upper_bound_gap(p, q, 0.5),
                       lambda p, q: expansion_prediction(p, q, 0.5)):
            with pytest.raises(AbsoluteContinuityError):
                kernel(p, q)
        # negative orders stay finite on every row
        assert np.all(np.isfinite(cr_standard(p, q, -0.5)))

    def test_rows_are_validated_one_by_one(self):
        with pytest.raises(ValueError, match="sum to 1.1"):
            DiscreteDist(np.array([[0.5, 0.5], [0.5, 0.6]]))
        with pytest.raises(ValueError):
            DiscreteDist.from_unnormalized(np.array([[1.0, 2.0], [0.0, 0.0]]))
        d = DiscreteDist.from_unnormalized(np.array([[1.0, 3.0], [2.0, 2.0]]))
        np.testing.assert_array_equal(d.probs, [[0.25, 0.75], [0.5, 0.5]])
        assert d.size == 2

    def test_single_pair_kernels_reject_a_batch(self):
        p = DiscreteDist(np.array([[0.5, 0.5], [0.3, 0.7]]))
        q = DiscreteDist(np.array([0.4, 0.6]))
        with pytest.raises(ValueError):
            variational_minimize(p, q, 0.5)
        with pytest.raises(ValueError):
            mixed_partial_probe(np.array([0.1, 0.2]), 0.3, 0.5)


class TestVariationalMinimize:
    def test_recovers_escort(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            size = int(rng.integers(2, 9))
            p, q = random_pair(rng, size)
            tau = float(rng.uniform(0.1, 0.9))
            sol = variational_minimize(p, q, tau)
            assert sol.converged
            assert np.abs(sol.argmin.probs - escort(p, q, tau).probs).sum() <= 1e-4
            assert sol.value == pytest.approx(srfe_discrete(p, q, tau), abs=1e-6)

    def test_identical_pair(self):
        p = DiscreteDist(np.array([0.3, 0.7]))
        sol = variational_minimize(p, p, 0.4)
        assert sol.converged
        np.testing.assert_allclose(sol.argmin.probs, p.probs, atol=1e-6)
        assert abs(sol.value) <= 1e-9


class TestExpansions:
    def test_residual_rate_near_both_endpoints(self):
        p, q = PAIR_A
        for tau_of, side in (((lambda d: 1.0 - d), "forward"),
                             ((lambda d: d), "reverse")):
            res = [abs(srfe_discrete(p, q, tau_of(d))
                       - expansion_prediction(p, q, tau_of(d), side))
                   for d in (0.02, 0.01)]
            assert 3.0 <= res[0] / res[1] <= 5.0

    def test_cr_expansion(self):
        p, q = PAIR_A
        res = [abs(cr_standard(p, q, lam) - cr_expansion_prediction(p, q, lam))
               for lam in (0.02, 0.01)]
        assert 3.0 <= res[0] / res[1] <= 5.0
        assert res[1] <= 1e-3

    def test_degenerate_pair_has_zero_residual(self):
        p = DiscreteDist(np.array([0.4, 0.6]))
        assert expansion_prediction(p, p, 0.95, "forward") == pytest.approx(0.0, abs=1e-15)
        assert abs(srfe_discrete(p, p, 0.95)) <= 1e-13


class TestMixedPartial:
    def test_kl_probe_matches_inverse_residual(self):
        # for the uniform 3-point reference the cross partial is 1/w exactly
        assert kl_mixed_partial_analytic(0.1, 0.4) == pytest.approx(2.0, abs=1e-15)
        assert kl_mixed_partial_analytic(0.2, 0.3) == pytest.approx(2.0, abs=1e-15)
        assert mixed_partial_probe(0.1, 0.4, 0.5, divergence="kl") == pytest.approx(
            2.0, abs=1e-6)

    def test_probe_matches_analytic(self):
        for u, v, tau in ((0.1, 0.4, 0.5), (0.2, 0.3, 0.3), (0.15, 0.2, 0.9)):
            assert mixed_partial_probe(u, v, tau) == pytest.approx(
                srfe_mixed_partial_analytic(u, v, tau), rel=1e-5)

    def test_equal_residual_points_differ(self):
        for tau in (0.3, 0.5, 0.9):
            a = mixed_partial_probe(0.1, 0.4, tau)
            b = mixed_partial_probe(0.2, 0.3, tau)
            assert abs(a - b) > 1e-3


class TestErrors:
    def test_disjoint_supports(self):
        p = DiscreteDist(np.array([1.0, 0.0]))
        q = DiscreteDist(np.array([0.0, 1.0]))
        assert chernoff_coefficient(p, q, 0.5) == 0.0
        with pytest.raises(DisjointSupportError):
            srfe_discrete(p, q, 0.5)
        # the power-divergence side stays finite: (1 - 0) / (tau (1 - tau))
        assert cr_associated(p, q, 0.5) == 4.0

    def test_absolute_continuity(self):
        p = DiscreteDist(np.array([0.5, 0.5]))
        q = DiscreteDist(np.array([1.0, 0.0]))
        with pytest.raises(AbsoluteContinuityError):
            cr_standard(p, q, 0.5)
        with pytest.raises(AbsoluteContinuityError):
            kl_discrete(p, q)
        # negative orders stay finite: the starved term contributes -p_i
        assert cr_standard(p, q, -0.5) == pytest.approx(
            1.1715728752538099, abs=1e-14)

    def test_tau_domain(self):
        p, q = PAIR_A
        for bad in (0.0, 1.0, -0.2, 1.3):
            with pytest.raises(ValueError):
                srfe_discrete(p, q, bad)
        # the overlap itself is defined on the closed interval
        assert chernoff_coefficient(p, q, 0.0) == pytest.approx(1.0, abs=1e-12)
        assert chernoff_coefficient(p, q, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_dist_validation(self):
        with pytest.raises(ValueError):
            DiscreteDist(np.array([0.5, 0.6]))
        with pytest.raises(ValueError):
            DiscreteDist(np.array([-0.1, 1.1]))
        with pytest.raises(ValueError):
            DiscreteDist.from_unnormalized(np.array([0.0, 0.0]))

    def test_dist_is_read_only(self):
        p = DiscreteDist(np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            p.probs[0] = 0.9

    def test_unnormalized_weights_are_checked_once(self):
        # the total overflows: dividing would give rows of zeros
        with pytest.warns(RuntimeWarning, match="overflow"), \
                pytest.raises(ValueError, match="finite total"):
            DiscreteDist.from_unnormalized(np.array([1e308, 1e308]))
        for bad in (2.0, [[0.5, np.inf]], [0.5, -0.1], np.zeros((2, 0))):
            with pytest.raises(ValueError):
                DiscreteDist.from_unnormalized(bad)
        # the same result as validating the quotient, read-only and in
        # the quotient's layout
        w = np.arange(1.0, 13.0).reshape(3, 4)[:, ::2]
        d = DiscreteDist.from_unnormalized(w)
        want = DiscreteDist(w / w.sum(axis=-1, keepdims=True))
        np.testing.assert_array_equal(d.probs, want.probs)
        assert d.probs.strides == want.probs.strides
        assert not d.probs.flags.writeable
        assert d.probs is not w
