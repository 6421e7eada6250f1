import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dpgbdt as d
from dpgbdt.accounting import GridMismatchError, InvalidParameterError, ZeroQueryError

from oracles import dense_alpha_grid, dense_grid_epsilon


def curve_at(curve, alpha):
    return float(curve.taus[np.where(curve.alphas == alpha)][0])


class TestGaussianRdp:
    def test_basic_points(self):
        assert curve_at(d.gaussian_rdp(1.0), 2.0) == pytest.approx(1.0)
        assert curve_at(d.gaussian_rdp(2.0), 4.0) == pytest.approx(0.5)
        assert curve_at(d.gaussian_rdp(0.5), 8.0) == pytest.approx(16.0)

    def test_rejects_bad_sigma(self):
        with pytest.raises(InvalidParameterError):
            d.gaussian_rdp(0.0)
        with pytest.raises(InvalidParameterError):
            d.gaussian_rdp(-1.0)

    def test_rejects_bad_orders(self):
        with pytest.raises(InvalidParameterError):
            d.gaussian_rdp(1.0, [0.5, 2.0])
        with pytest.raises(InvalidParameterError):
            d.gaussian_rdp(1.0, [2.0, 2.0])

    @given(
        sigma=st.floats(0.01, 100.0),
        c=st.floats(0.1, 10.0),
    )
    @settings(max_examples=50)
    def test_homogeneous_in_sigma(self, sigma, c):
        base = d.gaussian_rdp(sigma)
        scaled = d.gaussian_rdp(c * sigma)
        assert np.allclose(scaled.taus, base.taus / c**2, rtol=1e-12)


class TestCompose:
    def test_two_identical(self):
        c = d.gaussian_rdp(1.0)
        out = d.compose_sequential([c, c], [1, 1])
        assert curve_at(out, 2.0) == pytest.approx(2.0)

    def test_multiplicity(self):
        out = d.compose_sequential([d.gaussian_rdp(1.0)], [100])
        assert curve_at(out, 2.0) == pytest.approx(100.0)

    def test_empty_is_zero_curve(self):
        out = d.compose_sequential([])
        assert np.all(out.taus == 0.0)
        assert np.array_equal(out.alphas, d.DEFAULT_ALPHAS)

    def test_grid_mismatch(self):
        a = d.gaussian_rdp(1.0, [2.0, 3.0])
        b = d.gaussian_rdp(1.0, [2.0, 4.0])
        with pytest.raises(GridMismatchError):
            d.compose_sequential([a, b])

    @given(sigmas=st.lists(st.floats(0.1, 10.0), min_size=2, max_size=4))
    @settings(max_examples=40)
    def test_commutative_associative(self, sigmas):
        curves = [d.gaussian_rdp(s) for s in sigmas]
        forward = d.compose_sequential(curves)
        backward = d.compose_sequential(list(reversed(curves)))
        assert np.allclose(forward.taus, backward.taus, rtol=1e-12)
        nested = d.compose_sequential([d.compose_sequential(curves[:2]), *curves[2:]])
        assert np.allclose(forward.taus, nested.taus, rtol=1e-12)


class TestRdpToDp:
    def test_single_point(self):
        curve = d.RdpCurve(np.array([2.0]), np.array([1.0]))
        assert d.rdp_to_dp(curve, math.exp(-1)) == pytest.approx(2.0)

    def test_zero_curve_minimised_at_largest_alpha(self):
        curve = d.RdpCurve(d.DEFAULT_ALPHAS.copy(), np.zeros_like(d.DEFAULT_ALPHAS))
        expected = math.log(1e5) / (d.DEFAULT_ALPHAS[-1] - 1.0)
        assert d.rdp_to_dp(curve, 1e-5) == pytest.approx(expected)

    def test_dense_grid_example_frozen(self):
        # sigma=3, 150 compositions, delta=1e-5 on the dense 1.5..64 grid,
        # expected value computed by the step-0.01 brute-force oracle
        grid = dense_alpha_grid()
        eps = d.rdp_to_dp(d.compose_sequential([d.gaussian_rdp(3.0, grid)], [150]), 1e-5)
        assert eps == pytest.approx(27.92338316240415, abs=1e-9)

    def test_matches_dense_oracle_random_cases(self):
        rng = np.random.default_rng(7)
        grid = dense_alpha_grid()
        for _ in range(50):
            sigma = float(rng.uniform(0.3, 30.0))
            k = int(rng.integers(1, 2000))
            delta = float(10.0 ** rng.uniform(-8, -2))
            impl = d.rdp_to_dp(
                d.compose_sequential([d.gaussian_rdp(sigma, grid)], [k]), delta
            )
            assert impl == pytest.approx(dense_grid_epsilon(sigma, k, delta), abs=1e-6)

    def test_errors(self):
        curve = d.RdpCurve(np.array([2.0]), np.array([1.0]))
        with pytest.raises(InvalidParameterError):
            d.rdp_to_dp(curve, 0.0)
        with pytest.raises(InvalidParameterError):
            d.rdp_to_dp(d.RdpCurve(np.array([]), np.array([])), 1e-5)

    @given(
        sigma=st.floats(0.2, 20.0),
        k=st.integers(1, 500),
        factor=st.floats(1.1, 5.0),
    )
    @settings(max_examples=40)
    def test_monotone_in_sigma_and_count(self, sigma, k, factor):
        def epsilon(sigma, count):
            return d.rdp_to_dp(d.compose_sequential([d.gaussian_rdp(sigma)], [count]), 1e-5)

        eps = epsilon(sigma, k)
        assert epsilon(sigma * factor, k) <= eps
        assert epsilon(sigma, 2 * k) >= eps


class TestCalibrateSigma:
    def test_doubling_queries_scales_like_sqrt(self):
        budget = d.PrivacyBudget(1.0, 1e-5)
        s100 = d.calibrate_sigma(budget, d.QueryCounter(0, 0, 100))
        s200 = d.calibrate_sigma(budget, d.QueryCounter(0, 0, 200))
        assert 1.30 <= s200 / s100 <= 1.45

    def test_single_query_loose_budget_small_sigma(self):
        sigma = d.calibrate_sigma(d.PrivacyBudget(100.0, 1e-5), d.QueryCounter(0, 0, 1))
        assert sigma < 0.5

    def test_tighter_epsilon_needs_more_noise(self):
        counter = d.QueryCounter(0, 10, 5)
        loose = d.calibrate_sigma(d.PrivacyBudget(2.0, 1e-5), counter)
        tight = d.calibrate_sigma(d.PrivacyBudget(0.5, 1e-5), counter)
        assert tight > loose

    def test_round_trip_tightness(self):
        for eps, total in [(0.5, 40), (1.0, 300), (3.0, 25)]:
            budget = d.PrivacyBudget(eps, 1e-5)
            sigma = d.calibrate_sigma(budget, d.QueryCounter(total, 0, 0))
            achieved = d.rdp_to_dp(
                d.compose_sequential([d.gaussian_rdp(sigma)], [total]), budget.delta
            )
            assert achieved <= eps
            shaved = d.rdp_to_dp(
                d.compose_sequential([d.gaussian_rdp((1 - 1e-3) * sigma)], [total]),
                budget.delta,
            )
            assert shaved > eps

    def test_zero_queries_error(self):
        with pytest.raises(ZeroQueryError):
            d.calibrate_sigma(d.PrivacyBudget(1.0, 1e-5), d.QueryCounter(0, 0, 0))

    def test_coarser_grid_needs_at_least_as_much_noise(self):
        budget = d.PrivacyBudget(1.0, 1e-5)
        counter = d.QueryCounter(0, 50, 0)
        fine = d.calibrate_sigma(budget, counter)
        coarse = d.calibrate_sigma(budget, counter, alphas=[2.0, 8.0, 32.0])
        assert coarse >= fine * (1 - 1e-4)


class TestCountQueries:
    def test_hist_full_features(self):
        cfg = d.TrainConfig(T=25, d=4, m=10, split_method=d.SplitMethod.HIST)
        assert d.count_queries(cfg).as_tuple() == (0, 1000, 0)

    def test_totally_random(self):
        cfg = d.TrainConfig(T=300, m=10)
        assert d.count_queries(cfg).as_tuple() == (0, 0, 300)

    def test_tr_with_refinement(self):
        cfg = d.TrainConfig(
            T=100, m=10, candidate_method=d.CandidateMethod.ITERATIVE_HESSIAN, ih_rounds=5
        )
        assert d.count_queries(cfg).as_tuple() == (50, 0, 100)

    def test_single_feature_trees_cost_one_query_each(self):
        cfg = d.TrainConfig(T=40, d=4, m=10, k=1, split_method=d.SplitMethod.HIST)
        assert d.count_queries(cfg).as_tuple() == (0, 40, 0)

    def test_hist_with_refinement_is_free(self):
        cfg = d.TrainConfig(
            T=30,
            d=2,
            m=6,
            split_method=d.SplitMethod.HIST,
            candidate_method=d.CandidateMethod.ITERATIVE_HESSIAN,
        )
        assert d.count_queries(cfg).kappa_c == 0

    def test_random_subsets_refine_only_k(self):
        cfg = d.TrainConfig(
            T=50,
            m=10,
            k=3,
            feature_mode=d.FeatureMode.RANDOM,
            candidate_method=d.CandidateMethod.ITERATIVE_HESSIAN,
            ih_rounds=5,
        )
        assert d.count_queries(cfg).kappa_c == 15

    def test_refinement_rounds_capped_by_tree_count(self):
        cfg = d.TrainConfig(
            T=2, m=4, candidate_method=d.CandidateMethod.ITERATIVE_HESSIAN, ih_rounds=5
        )
        assert d.count_queries(cfg).kappa_c == 8

    def test_requires_m(self):
        with pytest.raises(InvalidParameterError):
            d.count_queries(d.TrainConfig(T=5))


class TestTypes:
    def test_budget_validation(self):
        with pytest.raises(InvalidParameterError):
            d.PrivacyBudget(0.0, 1e-5)
        with pytest.raises(InvalidParameterError):
            d.PrivacyBudget(1.0, 0.0)
        with pytest.raises(InvalidParameterError):
            d.PrivacyBudget(1.0, 1.0)

    def test_counter_validation(self):
        with pytest.raises(InvalidParameterError):
            d.QueryCounter(-1, 0, 0)
        assert d.QueryCounter(1, 2, 3).total == 6

    def test_noise_scale(self):
        ns = d.NoiseScale(2.0, 0.5)
        assert ns.std == pytest.approx(1.0)
        with pytest.raises(InvalidParameterError):
            d.NoiseScale(0.0, 1.0)

    def test_curve_validation(self):
        with pytest.raises(InvalidParameterError):
            d.RdpCurve(np.array([2.0, 1.5]), np.array([1.0, 1.0]))
        with pytest.raises(InvalidParameterError):
            d.RdpCurve(np.array([2.0]), np.array([-1.0]))
