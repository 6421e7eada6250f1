import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dpgbdt as d
from dpgbdt.accounting import InvalidParameterError, ZeroQueryError

from oracles import dense_grid_epsilon


class TestGaussianRdp:
    def test_basic_points(self):
        # K alpha / (2 sigma^2) + L / (alpha - 1) is least at
        # alpha = 1 + sqrt(2 sigma^2 L / K), here an order of DEFAULT_ALPHAS
        for sigma, queries, log_inv_delta, epsilon in [
            (1.0, 1, 0.5, 1.5), (2.0, 8, 9.0, 7.0), (0.5, 1, 98.0, 30.0)
        ]:
            delta = math.exp(-log_inv_delta)
            assert d.rdp_epsilon(sigma, queries, delta) == pytest.approx(epsilon, rel=1e-12)

    def test_rejects_bad_sigma(self):
        for sigma in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(InvalidParameterError):
                d.rdp_epsilon(sigma, 1, 1e-5)

    @given(
        sigma=st.floats(0.01, 100.0),
        queries=st.integers(0, 5000),
        c=st.integers(1, 50),
        delta=st.floats(1e-12, 0.5),
    )
    @settings(max_examples=100)
    def test_homogeneous_in_sigma(self, sigma, queries, c, delta):
        # epsilon is a function of queries / sigma^2 alone
        scaled = d.rdp_epsilon(c * sigma, c * c * queries, delta)
        assert scaled == pytest.approx(d.rdp_epsilon(sigma, queries, delta), rel=1e-12)


class TestRdpToDp:
    def test_single_point(self):
        # the minimum sits at the smallest order, alpha = 1.5
        assert d.rdp_epsilon(1.0, 2, math.exp(-0.25)) == pytest.approx(2.0)

    def test_zero_curve_minimised_at_largest_alpha(self):
        expected = math.log(1e5) / (d.DEFAULT_ALPHAS[-1] - 1.0)
        assert d.rdp_epsilon(1.0, 0, 1e-5) == pytest.approx(expected)

    def test_dense_grid_example_frozen(self):
        # sigma=3, 150 queries, delta=1e-5; expected value computed by the
        # brute-force oracle on DEFAULT_ALPHAS
        eps = d.rdp_epsilon(3.0, 150, 1e-5)
        assert eps == pytest.approx(27.960340371976184, abs=1e-9)
        # the default orders cost little against the dense 1.5..64 grid here
        assert 0.0 <= eps - dense_grid_epsilon(3.0, 150, 1e-5) < 0.01 * eps

    def test_matches_dense_oracle_random_cases(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            sigma = float(rng.uniform(0.3, 30.0))
            k = int(rng.integers(1, 2000))
            delta = float(10.0 ** rng.uniform(-8, -2))
            impl = d.rdp_epsilon(sigma, k, delta)
            oracle = dense_grid_epsilon(sigma, k, delta, orders=d.DEFAULT_ALPHAS)
            assert impl == pytest.approx(oracle, abs=1e-6)

    def test_errors(self):
        for delta in (0.0, 1.0, -0.5):
            with pytest.raises(InvalidParameterError):
                d.rdp_epsilon(1.0, 1, delta)
        for queries in (-1, 1.5):
            with pytest.raises(InvalidParameterError):
                d.rdp_epsilon(1.0, queries, 1e-5)

    @given(
        sigma=st.floats(0.2, 20.0),
        k=st.integers(1, 500),
        factor=st.floats(1.1, 5.0),
    )
    @settings(max_examples=40)
    def test_monotone_in_sigma_and_count(self, sigma, k, factor):
        eps = d.rdp_epsilon(sigma, k, 1e-5)
        assert d.rdp_epsilon(sigma * factor, k, 1e-5) <= eps
        assert d.rdp_epsilon(sigma, 2 * k, 1e-5) >= eps


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
            assert d.rdp_epsilon(sigma, total, budget.delta) <= eps
            assert d.rdp_epsilon((1 - 1e-3) * sigma, total, budget.delta) > eps

    def test_zero_queries_error(self):
        with pytest.raises(ZeroQueryError):
            d.calibrate_sigma(d.PrivacyBudget(1.0, 1e-5), d.QueryCounter(0, 0, 0))

    def test_budget_met_only_above_sigma_1e4(self):
        # sigma = 1e4 misses this budget, but sigma = 1e5 meets it
        budget, total = d.PrivacyBudget(0.0378, 2.856e-4), 17_149
        assert d.rdp_epsilon(1e4, total, budget.delta) > budget.epsilon
        assert d.rdp_epsilon(1e5, total, budget.delta) <= budget.epsilon
        sigma = d.calibrate_sigma(budget, d.QueryCounter(0, total, 0))
        assert 1e4 < sigma < 1e5
        assert d.rdp_epsilon(sigma, total, budget.delta) <= budget.epsilon
        assert d.rdp_epsilon((1 - 1e-3) * sigma, total, budget.delta) > budget.epsilon

    def test_budget_at_or_below_the_floor_is_unreachable(self):
        # no sigma gets epsilon below log(1/delta) / 255, the largest order's term
        floor = math.log(1e6) / 255
        assert d.rdp_epsilon(1e12, 20_000, 1e-6) == pytest.approx(floor, rel=1e-12)
        for eps in (0.05, floor):
            with pytest.raises(InvalidParameterError, match="no sigma meets.*floor"):
                d.calibrate_sigma(d.PrivacyBudget(eps, 1e-6), d.QueryCounter(0, 20_000, 0))


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
