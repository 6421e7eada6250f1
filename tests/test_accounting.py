import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import log_ndtr

import dpgbdt as d
from dpgbdt.accounting import InvalidParameterError, ZeroQueryError, _log_ndtr

from oracles import dense_grid_epsilon


class TestLogNdtr:
    @staticmethod
    def assert_matches_scipy(x):
        ref = float(log_ndtr(x))
        assert abs(_log_ndtr(x) - ref) <= 1e-12 * max(1.0, abs(ref)), x

    def test_matches_scipy_on_a_grid(self):
        # both sides of the switch to the asymptotic series at x = -30
        grid = np.concatenate([np.linspace(-1e4, 40.0, 20_001), np.linspace(-31.0, -29.0, 2_001)])
        for x in [*grid, np.nextafter(-30.0, 0.0), np.nextafter(-30.0, -31.0), 0.0, 5e-324]:
            self.assert_matches_scipy(float(x))

    @given(x=st.floats(-1e4, 40.0))
    @settings(max_examples=300)
    def test_matches_scipy(self, x):
        self.assert_matches_scipy(x)


class TestGdpDelta:
    @given(mu=st.floats(1e-3, 20.0))
    def test_at_epsilon_zero_it_is_the_total_variation(self, mu):
        # delta(0) = Phi(mu / 2) - Phi(-mu / 2)
        assert d.gdp_delta(mu, 0.0) == pytest.approx(math.erf(mu / (2.0 * math.sqrt(2.0))), rel=1e-12)

    @given(mu=st.floats(1e-3, 50.0), epsilon=st.floats(0.0, 50.0), factor=st.floats(1.001, 10.0))
    def test_grows_with_mu_and_falls_with_epsilon(self, mu, epsilon, factor):
        delta = d.gdp_delta(mu, epsilon)
        assert 0.0 <= delta <= 1.0
        assert d.gdp_delta(mu * factor, epsilon) >= delta
        assert d.gdp_delta(mu, epsilon * factor + 1e-3) <= delta

    def test_far_tails_raise_no_domain_error(self):
        assert d.gdp_delta(1e-4, 10.0) == 0.0
        assert d.gdp_delta(1e-4, 50.0) == 0.0
        assert d.gdp_delta(1e4, 1e-3) == pytest.approx(1.0)
        assert 0.0 < d.gdp_delta(0.3, 10.0) < 1e-100

    def test_rejects_bad_parameters(self):
        for mu, epsilon in [(0.0, 1.0), (-1.0, 1.0), (math.nan, 1.0), (1.0, -1.0), (1.0, math.nan)]:
            with pytest.raises(InvalidParameterError):
                d.gdp_delta(mu, epsilon)


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

    @staticmethod
    def assert_tight(budget, total):
        # sigma meets the budget on the exact curve, and (1 - 1e-6) sigma does not
        sigma = d.calibrate_sigma(budget, d.QueryCounter(0, total, 0))
        mu = math.sqrt(total) / sigma
        assert d.gdp_delta(mu, budget.epsilon) <= budget.delta
        assert d.gdp_delta(mu / (1 - 1e-6), budget.epsilon) > budget.delta
        return sigma

    def test_round_trip_tightness(self):
        for eps, total in [(0.5, 40), (1.0, 300), (3.0, 25)]:
            self.assert_tight(d.PrivacyBudget(eps, 1e-5), total)

    def test_zero_queries_error(self):
        with pytest.raises(ZeroQueryError):
            d.calibrate_sigma(d.PrivacyBudget(1.0, 1e-5), d.QueryCounter(0, 0, 0))

    def test_small_epsilon_calibrates(self):
        self.assert_tight(d.PrivacyBudget(0.05, 1e-6), 20_000)

    def test_budget_met_only_above_sigma_1e4(self):
        budget, total = d.PrivacyBudget(0.02, 1e-6), 5_000
        assert d.gdp_delta(math.sqrt(total) / 1e4, budget.epsilon) > budget.delta
        assert self.assert_tight(budget, total) > 1e4

    @given(
        total=st.integers(1, 10**6),
        epsilon=st.floats(1e-3, 50.0),
        delta=st.floats(1e-12, 0.5),
    )
    @settings(max_examples=100, deadline=None)
    def test_exact_calibration_is_tight_and_never_looser_than_renyi(self, total, epsilon, delta):
        sigma = self.assert_tight(d.PrivacyBudget(epsilon, delta), total)
        assert dense_grid_epsilon(sigma, total, delta) >= epsilon


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

