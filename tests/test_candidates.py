import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import dpgbdt as d
from dpgbdt.candidates import _refine_feature, bin_index

from oracles import exact_hessian_histogram


class TestUniform:
    def test_formula(self):
        out = d.uniform_candidates([(0.0, 1.0)], 5).per_feature[0]
        assert np.allclose(out, [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_endpoints_q2(self):
        out = d.uniform_candidates([(-2.0, 2.0)], 2).per_feature[0]
        assert np.allclose(out, [-2.0, 2.0])

    def test_degenerate_bounds(self):
        with pytest.raises(ValueError):
            d.uniform_candidates([(0.0, 0.0)], 4)
        with pytest.raises(ValueError):
            d.uniform_candidates([(0.0, 1.0)], 1)


class TestLog:
    def test_endpoints(self):
        out = d.log_candidates([(0.0, math.e - 1.0)], 2).per_feature[0]
        assert np.allclose(out, [0.0, math.e - 1.0])

    def test_closed_form_midpoint(self):
        out = d.log_candidates([(0.0, 3.0)], 3).per_feature[0]
        assert np.allclose(out, [0.0, 1.0, 3.0])

    @given(
        a=st.floats(-100.0, 100.0),
        width=st.floats(1e-3, 1e4),
        Q=st.integers(2, 64),
    )
    @settings(max_examples=500)
    def test_strictly_increasing_in_bounds(self, a, width, Q):
        out = d.log_candidates([(a, a + width)], Q).per_feature[0]
        assert out.size == Q
        assert np.all(np.diff(out) > 0)
        assert out[0] == pytest.approx(a)
        assert out[-1] == pytest.approx(a + width)


class TestQuantile:
    def test_interpolation_rule_frozen(self):
        out = d.quantile_candidates(np.arange(1.0, 101.0), 3, (1.0, 100.0))
        assert np.allclose(out, [25.25, 50.5, 75.75])

    def test_constant_column_pads_uniformly(self):
        out = d.quantile_candidates(np.full(50, 0.4), 4, (0.0, 1.0))
        assert out.size == 4
        assert 0.4 in out
        assert np.all(np.diff(out) > 0)

    def test_uniform_sample_approaches_levels(self):
        rng = np.random.default_rng(3)
        values = rng.random(100_000)
        out = d.quantile_candidates(values, 4, (0.0, 1.0))
        assert np.allclose(out, [0.2, 0.4, 0.6, 0.8], atol=0.01)

    def test_empty_column(self):
        with pytest.raises(ValueError):
            d.quantile_candidates(np.array([]), 3, (0.0, 1.0))


class TestBinIndex:
    def test_closed_right_rule(self):
        thr = np.array([0.25, 0.5, 0.75])
        assert bin_index(np.array([0.5]), thr)[0] == 1
        assert bin_index(np.array([0.25]), thr)[0] == 0
        assert bin_index(np.array([0.251]), thr)[0] == 1
        assert bin_index(np.array([0.0]), thr)[0] == 0
        assert bin_index(np.array([0.9]), thr)[0] == 2  # above last threshold

    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=50))
    @settings(max_examples=100)
    def test_matches_loop_oracle(self, values):
        thr = np.array([0.2, 0.4, 0.6, 0.8])
        x = np.array(values)
        ours = bin_index(x, thr)
        hist = np.bincount(ours, weights=np.ones_like(x), minlength=4)
        oracle = exact_hessian_histogram(x, np.ones_like(x), thr)
        assert np.allclose(hist, oracle)

    @given(
        thr=st.integers(1, 300).flatmap(
            lambda q: hnp.arrays(
                float, q, elements=st.floats(-1e300, 1e300, allow_subnormal=True), unique=True
            )
        ),
        data=st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_equals_clipped_searchsorted(self, thr, data):
        thr = np.sort(thr)
        q, lo, hi = thr.size, thr[0], thr[-1]
        near = np.concatenate([thr, np.nextafter(thr, -np.inf), np.nextafter(thr, np.inf)])
        # the thresholds and their neighbours, NaN, +-inf, the outermost thresholds
        # as bounds and beyond, and free values, in a drawn order
        edges = [*near.tolist(), np.nan, np.inf, -np.inf, lo, hi, -0.0, 0.0]
        free = data.draw(st.lists(st.floats(), max_size=40))
        x = np.array(data.draw(st.permutations(edges + free)))
        got = bin_index(x, thr)
        assert got.dtype == np.min_scalar_type(q - 1)
        assert np.array_equal(got, np.minimum(np.searchsorted(thr, x, "left"), q - 1))

    @pytest.mark.parametrize(
        "q, dtype",
        [(1, np.uint8), (2, np.uint8), (256, np.uint8), (257, np.uint16), (300, np.uint16)],
    )
    def test_dtype_is_the_narrowest_that_holds_the_last_bin(self, q, dtype):
        thr = np.arange(float(q))
        x = np.array([-1.0, 0.5, q + 1.0, np.nan])
        got = bin_index(x, thr)
        assert got.dtype == dtype
        assert got.tolist() == [0, min(1, q - 1), q - 1, q - 1]


class TestIterativeHessianRefine:
    def test_uniform_mass_is_a_fixpoint(self):
        grid = d.uniform_candidates([(0.0, 1.0)], 5)
        hist = {0: np.full(5, 2.0)}
        once = d.iterative_hessian_refine(hist, grid)
        assert np.allclose(once.per_feature[0], grid.per_feature[0])
        twice = d.iterative_hessian_refine(hist, once)
        assert np.allclose(twice.per_feature[0], once.per_feature[0])

    def test_uniform_mass_outputs_subset_of_edges_and_midpoints(self):
        grid = d.uniform_candidates([(0.0, 1.0)], 8)
        old = grid.per_feature[0]
        allowed = np.unique(
            np.concatenate([[0.0], old, (np.concatenate([[0.0], old[:-1]]) + old) / 2.0])
        )
        out = d.iterative_hessian_refine({0: np.ones(8)}, grid).per_feature[0]
        for v in out:
            assert np.any(np.isclose(allowed, v))

    def test_single_heavy_bin(self):
        grid = d.uniform_candidates([(0.0, 1.0)], 5)
        out = _refine_feature(np.array([0.0, 0.0, 10.0, 0.0, 0.0]), grid.per_feature[0], 0.0, 1.0)
        # heavy bin (0.25, 0.5] keeps both edges and gains its midpoint;
        # the trailing merged run keeps its right edge; fill tops up to Q
        assert np.allclose(out, [0.25, 0.375, 0.5, 0.75, 1.0])

    def test_negative_bins_treated_as_empty(self):
        grid = d.uniform_candidates([(0.0, 1.0)], 4)
        with_negative = _refine_feature(
            np.array([-5.0, 8.0, 0.0, 0.0]), grid.per_feature[0], 0.0, 1.0
        )
        with_zero = _refine_feature(
            np.array([0.0, 8.0, 0.0, 0.0]), grid.per_feature[0], 0.0, 1.0
        )
        assert np.allclose(with_negative, with_zero)

    def test_shape_mismatch(self):
        grid = d.uniform_candidates([(0.0, 1.0)], 4)
        for hist in (np.ones(3), np.ones(5), np.ones((4, 1)), np.ones(())):
            with pytest.raises(ValueError):
                d.iterative_hessian_refine({0: hist}, grid)

    @pytest.mark.parametrize("feature", [-1, 2])
    def test_feature_outside_candidate_set(self, feature):
        grid = d.uniform_candidates([(0.0, 1.0), (0.0, 2.0)], 4)
        with pytest.raises(ValueError):
            d.iterative_hessian_refine({feature: np.ones(4)}, grid)

    def test_missing_feature_keeps_thresholds(self):
        grid = d.uniform_candidates([(0.0, 1.0), (0.0, 2.0)], 4)
        out = d.iterative_hessian_refine({1: np.array([0.0, 4.0, 0.0, 0.0])}, grid)
        assert np.allclose(out.per_feature[0], grid.per_feature[0])
        assert not np.allclose(out.per_feature[1], grid.per_feature[1])

    def test_lognormal_refinement_reduces_max_bin_mass(self):
        # exact (noiseless) Hessian histograms on a heavy-tailed feature:
        # the max per-bin mass must fall strictly every round until it is
        # within 2x of the uniform target
        rng = np.random.default_rng(0)
        x = np.minimum(rng.lognormal(0.0, 1.25, 20_000), np.exp(5.0))
        h = np.full_like(x, 0.25)
        bounds = (0.0, float(np.exp(5.0)))
        cs = d.uniform_candidates([bounds], 32)
        theta = h.sum() / 32
        prev = None
        for _ in range(5):
            hist = np.bincount(bin_index(x, cs.per_feature[0]), weights=h, minlength=32)
            peak = hist.max()
            if prev is not None and prev > 2.0 * theta:
                assert peak < prev
            prev = peak
            cs = d.iterative_hessian_refine({0: hist}, cs)
        final = np.bincount(bin_index(x, cs.per_feature[0]), weights=h, minlength=32).max()
        assert final < prev or final <= 2.0 * theta

    def test_signature_admits_no_raw_data(self):
        # post-processing contract: the refinement sees only the released
        # histograms and the current thresholds
        params = list(inspect.signature(d.iterative_hessian_refine).parameters)
        assert params == ["hessians", "current"]

    @given(
        masses=st.lists(st.floats(-5.0, 50.0), min_size=4, max_size=16),
    )
    @settings(max_examples=200)
    def test_output_always_q_increasing_in_bounds(self, masses):
        Q = len(masses)
        grid = d.uniform_candidates([(0.0, 4.0)], Q)
        out = _refine_feature(np.array(masses), grid.per_feature[0], 0.0, 4.0)
        assert out.size == Q
        assert np.all(np.diff(out) > 0)
        assert out[0] >= 0.0 and out[-1] <= 4.0


class TestCandidateSetInvariants:
    @given(Q=st.integers(2, 40), a=st.floats(-10, 10), w=st.floats(0.5, 20))
    @settings(max_examples=100)
    def test_generators_return_exactly_q(self, Q, a, w):
        bounds = [(a, a + w), (a - 1, a + w)]
        for gen in (d.uniform_candidates, d.log_candidates):
            cs = gen(bounds, Q)
            assert cs.q == Q
            for j, arr in enumerate(cs.per_feature):
                lo, hi = bounds[j]
                assert arr.size == Q
                assert np.all(np.diff(arr) > 0)
                assert arr[0] >= lo - 1e-12 and arr[-1] <= hi + 1e-12

    def test_one_read_only_threshold_table(self):
        cs = d.uniform_candidates([(0.0, 1.0), (-2.0, 5.0), (1.0, 3.0)], 6)
        assert cs.table.shape == (3, 6) and not cs.table.flags.writeable
        for j, row in enumerate(cs.per_feature):
            assert np.shares_memory(row, cs.table) and np.array_equal(row, cs.table[j])
        with pytest.raises(ValueError):
            cs.per_feature[0][0] = 0.5

    def test_rejects_non_increasing(self):
        with pytest.raises(ValueError):
            d.SplitCandidateSet((np.array([0.5, 0.5]),), ((0.0, 1.0),))

    def test_rejects_out_of_bounds(self):
        with pytest.raises(ValueError):
            d.SplitCandidateSet((np.array([0.5, 1.5]),), ((0.0, 1.0),))
