import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dpgbdt as d
from dpgbdt.accounting import InvalidParameterError
from dpgbdt.gradients import (
    SENSITIVITY_COUNTING,
    SENSITIVITY_NEWTON,
    sigmoid,
    update_scores,
)

from oracles import bce_loss, masked_sigmoid, stacked_update_scores


class TestBceGradients:
    def test_label_one_at_zero(self):
        g, h = d.bce_gradients([1], [0.0])
        assert g == pytest.approx([-0.5])
        assert h == pytest.approx([0.25])

    def test_label_zero_at_zero(self):
        g, h = d.bce_gradients([0], [0.0])
        assert g == pytest.approx([0.5])
        assert h == pytest.approx([0.25])

    def test_saturation(self):
        g, h = d.bce_gradients([1], [40.0])
        assert abs(g[0]) < 1e-15
        assert 0.0 <= h[0] < 1e-15

    def test_vectorised(self):
        gh = d.bce_gradients(np.array([0, 1]), np.array([0.0, 0.0]))
        assert gh.shape == (2, 2) and gh.dtype == float
        assert np.allclose(gh[0], [0.5, -0.5])
        assert np.allclose(gh[1], [0.25, 0.25])

    def test_finite_difference_check(self):
        # g against a central difference of the scalar loss at step 1e-6;
        # h against the same central difference of the (already verified) g
        rng = np.random.default_rng(11)
        step = 1e-6
        labels = rng.integers(0, 2, size=1000)
        raws = rng.normal(0.0, 3.0, size=1000)
        g, h = d.bce_gradients(labels, raws)
        g_up = d.bce_gradients(labels, raws + step)[0]
        g_down = d.bce_gradients(labels, raws - step)[0]
        for i, (label, raw) in enumerate(zip(labels.tolist(), raws.tolist())):
            g_fd = (bce_loss(label, raw + step) - bce_loss(label, raw - step)) / (2 * step)
            assert g[i] == pytest.approx(g_fd, abs=1e-5)
            assert h[i] == pytest.approx((g_up[i] - g_down[i]) / (2 * step), abs=1e-5)

    def test_newton_pair_norm_bound(self):
        rng = np.random.default_rng(5)
        labels = rng.integers(0, 2, size=1_000_000)
        raws = rng.normal(0.0, 5.0, size=1_000_000)
        g, h = d.bce_gradients(labels, raws)
        assert np.all(np.abs(g) <= 1.0)
        assert np.all((h >= 0.0) & (h <= 0.25))
        assert np.all(np.hypot(g, h) <= SENSITIVITY_NEWTON + 1e-12)


class TestModeGradients:
    def test_averaging(self):
        gh = d.mode_gradients(np.array([1, 0]), np.array([0.3, -2.0]), d.UpdateMode.AVERAGING)
        assert gh.dtype == float and np.array_equal(gh, [[1.0, 0.0], [1.0, 1.0]])

    def test_gradient_mode_forces_unit_hessian(self):
        g, h = d.mode_gradients(np.array([0, 1]), np.array([0.0, 1.5]), d.UpdateMode.GRADIENT)
        assert g == pytest.approx([0.5, sigmoid(1.5) - 1.0])
        assert np.array_equal(h, [1.0, 1.0])

    def test_newton_matches_bce(self):
        labels, raws = np.array([1, 0, 1]), np.array([0.0, -0.7, 3.0])
        gh = d.mode_gradients(labels, raws, d.UpdateMode.NEWTON)
        assert np.array_equal(gh, d.bce_gradients(labels, raws))


class TestSensitivities:
    def test_newton(self):
        assert d.query_sensitivity(d.UpdateMode.NEWTON) == pytest.approx(
            math.sqrt(17.0) / 4.0
        )
        assert d.query_sensitivity(d.UpdateMode.NEWTON) == pytest.approx(1.0307764064)

    def test_counting_modes(self):
        assert d.query_sensitivity(d.UpdateMode.AVERAGING) == pytest.approx(math.sqrt(2))
        assert d.query_sensitivity(d.UpdateMode.GRADIENT) == pytest.approx(1.41421356237)
        assert SENSITIVITY_COUNTING == pytest.approx(math.sqrt(2))


class TestHelpers:
    @given(st.lists(st.floats(-30, 30), min_size=1, max_size=20))
    @settings(max_examples=100)
    def test_sigmoid_stable_and_bounded(self, values):
        x = np.array(values)
        p = sigmoid(x)
        assert np.all((0.0 <= p) & (p <= 1.0))
        assert np.allclose(p, 1.0 - sigmoid(-x), rtol=0.0, atol=1e-12)

    # each edge enters with both signs: ±0.0, ±5e-324, ±36, ±709.78, ±745.2, ±1e308
    EDGES = [0.0, 5e-324, 36.0, 709.78, 745.2, 1e308]

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=30))
    @settings(max_examples=200)
    def test_sigmoid_bit_identical_to_masked_formula(self, values):
        x = np.array(values + self.EDGES + [-v for v in self.EDGES])
        got, want = sigmoid(x), masked_sigmoid(x)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


    def test_sigmoid_of_non_finite_and_scalar_inputs(self):
        got = sigmoid(np.array([np.nan, np.inf, -np.inf, -0.0]))
        assert np.isnan(got[0]) and got[1:].tolist() == [1.0, 0.0, 0.5]
        assert isinstance(sigmoid(-1.5), np.float64) and sigmoid(-1.5) == masked_sigmoid([-1.5])[0]

    @pytest.mark.parametrize("mode", list(d.UpdateMode))
    def test_float_labels_give_the_int_label_bits(self, mode):
        rng = np.random.default_rng(3)
        labels, raws = rng.integers(0, 2, 500), rng.normal(0.0, 4.0, 500)
        got = d.mode_gradients(labels.astype(float), raws, mode)
        assert got.shape == (2, 500) and got.T.flags.c_contiguous
        assert _same_bits(got, d.mode_gradients(labels, raws, mode))


def _same_bits(a, b) -> bool:
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


class TestUpdateScores:
    """The streamed batch update against the stacked-matrix formula it replaced."""

    VALUES = st.one_of(
        st.sampled_from([0.0, -0.0, 5e-324, -5e-324]),
        st.floats(-1e8, 1e8, allow_nan=False),
        st.floats(-1e-8, 1e-8, allow_nan=False),
    )

    @given(
        data=st.data(),
        B=st.integers(1, 12),
        n=st.integers(2, 30),
        eta=st.floats(0.01, 1.0),
        plain=st.booleans(),
    )
    @settings(max_examples=200)
    def test_bit_equal_to_stacked_formula(self, data, B, n, eta, plain):
        flat = data.draw(st.lists(self.VALUES, min_size=(B + 1) * n, max_size=(B + 1) * n))
        raw, W = np.array(flat[:n]), np.array(flat[n:]).reshape(B, n)
        want = stacked_update_scores(raw, W, eta, plain)
        got = update_scores(raw, (row.copy() for row in W), eta, plain)
        assert _same_bits(got, want)

    @pytest.mark.parametrize("B", [1, 3])
    def test_signed_zeros_match_the_stacked_sum(self, B):
        # numpy's reduce starts from +0.0, so an all -0.0 column sums to +0.0
        raw = np.array([-0.0, -0.0, 0.0, 1.0])
        W = np.tile([-0.0, 0.0, -0.0, -0.0], (B, 1))
        for plain in (True, False):
            got = update_scores(raw, list(W), 0.3, plain)
            assert _same_bits(got, stacked_update_scores(raw, W, 0.3, plain))
        assert _same_bits(update_scores(raw, list(W), 0.3, True), np.array([0.0, 0.0, 0.0, 1.0]))

    def test_long_batch_bit_equal(self):
        rng = np.random.default_rng(4)
        W = rng.normal(size=(300, 500)) * 10.0 ** rng.uniform(-8, 8, size=(300, 1))
        raw = rng.normal(size=500)
        for plain in (True, False):
            assert _same_bits(
                update_scores(raw, list(W), 0.1, plain), stacked_update_scores(raw, W, 0.1, plain)
            )

    def test_inputs_are_not_modified(self):
        raw, W = np.ones(3), np.arange(6.0).reshape(2, 3)
        update_scores(raw, W, 0.1, plain=True)  # rows of W are views into it
        assert np.array_equal(raw, np.ones(3)) and np.array_equal(W, np.arange(6.0).reshape(2, 3))

    @pytest.mark.parametrize("weights", [[], iter(())])
    def test_empty_batch_raises(self, weights):
        with pytest.raises(InvalidParameterError, match="at least one tree"):
            update_scores(np.zeros(3), weights, 0.1, plain=False)

    @pytest.mark.parametrize(
        "weights",
        [[np.zeros(4)], [np.zeros(3), np.zeros(2)], [np.zeros((1, 3))], [np.zeros(3), 1.0]],
    )
    def test_vector_shape_must_match_raw(self, weights):
        with pytest.raises(InvalidParameterError, match="shape"):
            update_scores(np.zeros(3), weights, 0.1, plain=True)
