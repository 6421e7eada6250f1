import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import dpgbdt as d
from dpgbdt.data import (
    CsvParseError,
    NonBinaryLabelError,
    OutOfBoundsError,
    _label_probabilities,
)

from helpers import save_csv
from oracles import bisected_label_probabilities, sample_skewness


class TestSynthesize:
    def test_deterministic(self):
        a = d.synthesize(100, 5, 0.0, 0.5, seed=7)
        b = d.synthesize(100, 5, 0.0, 0.5, seed=7)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)
        assert a.bounds == b.bounds

    def test_different_seeds_differ(self):
        a = d.synthesize(100, 5, 0.0, 0.5, seed=7)
        b = d.synthesize(100, 5, 0.0, 0.5, seed=8)
        assert not np.array_equal(a.features, b.features)

    def test_fully_skewed_features_are_heavy_tailed(self):
        ds = d.synthesize(10_000, 4, skewed_fraction=1.0, class_balance=0.5, seed=3)
        for j in range(ds.m):
            assert sample_skewness(ds.features[:, j]) > 1.0
            # cross-check against scipy's estimator
            assert stats.skew(ds.features[:, j]) > 1.0

    def test_unskewed_features_are_not(self):
        ds = d.synthesize(10_000, 4, skewed_fraction=0.0, class_balance=0.5, seed=3)
        for j in range(ds.m):
            assert abs(sample_skewness(ds.features[:, j])) < 0.5

    def test_class_balance_concentrates(self):
        ds = d.synthesize(100_000, 5, 0.0, class_balance=0.25, seed=11)
        rate = ds.labels.mean()
        assert abs(rate - 0.25) < 0.01

    def test_values_inside_declared_bounds(self):
        ds = d.synthesize(5000, 6, 0.5, 0.4, seed=2)
        for j, (a, b) in enumerate(ds.bounds):
            assert ds.features[:, j].min() >= a
            assert ds.features[:, j].max() <= b
        assert not ds.bounds_derived

    @settings(max_examples=300, deadline=None)
    @given(
        z=st.one_of(
            st.integers(2, 60).map(np.zeros),
            st.lists(st.floats(-30.0, 30.0), min_size=2, max_size=60).map(np.array),
        ),
        class_balance=st.one_of(
            st.sampled_from([1e-9, 0.5, 1 - 1e-9]), st.floats(1e-9, 1 - 1e-9)
        ),
    )
    def test_intercept_bisection_matches_200_steps(self, z, class_balance):
        got = _label_probabilities(z, class_balance)
        assert np.array_equal(got, bisected_label_probabilities(z, class_balance))

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            d.synthesize(1, 3)
        with pytest.raises(ValueError):
            d.synthesize(10, 3, skewed_fraction=1.5)


class TestTrainTestSplit:
    def test_sizes(self):
        ds = d.synthesize(10, 2, seed=0)
        pair = d.train_test_split(ds, 0.7, seed=1)
        assert pair.train.n == 7
        assert pair.test.n == 3

    def test_floor_rule(self):
        ds = d.synthesize(10, 2, seed=0)
        pair = d.train_test_split(ds, 0.999, seed=1)
        assert pair.train.n == 9
        assert pair.test.n == 1

    def test_deterministic_partition(self):
        ds = d.synthesize(50, 3, seed=0)
        a = d.train_test_split(ds, 0.6, seed=4)
        b = d.train_test_split(ds, 0.6, seed=4)
        assert np.array_equal(a.train.features, b.train.features)
        assert np.array_equal(a.test.labels, b.test.labels)

    def test_disjoint_cover(self):
        ds = d.synthesize(40, 2, seed=0)
        pair = d.train_test_split(ds, 0.5, seed=9)
        combined = np.vstack([pair.train.features, pair.test.features])
        original = ds.features[np.lexsort(ds.features.T)]
        recombined = combined[np.lexsort(combined.T)]
        assert np.array_equal(original, recombined)

    def test_degenerate_fraction(self):
        ds = d.synthesize(5, 2, seed=0)
        with pytest.raises(ValueError):
            d.train_test_split(ds, 0.05, seed=0)
        with pytest.raises(ValueError):
            d.train_test_split(ds, 1.0, seed=0)


class TestCsv:
    def test_round_trip(self, tmp_path):
        ds = d.synthesize(200, 4, 0.5, 0.4, seed=13)
        path = tmp_path / "data.csv"
        save_csv(ds, path, label_column="y")
        back = d.load_csv(path, "y", bounds=ds.bounds)
        assert np.array_equal(back.features, ds.features)
        assert np.array_equal(back.labels, ds.labels)
        assert back.bounds == ds.bounds
        assert not back.bounds_derived

    def test_small_parse(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b,y\n0.5,1.0,0\n0.25,2.0,1\n0.75,3.0,0\n")
        ds = d.load_csv(path, "y")
        assert ds.n == 3
        assert ds.m == 2
        assert list(ds.labels) == [0, 1, 0]
        assert ds.bounds_derived

    def test_missing_file(self, tmp_path):
        with pytest.raises(CsvParseError):
            d.load_csv(tmp_path / "nope.csv", "y")

    def test_non_numeric_cell_names_position(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b,y\n0.5,1.0,0\n0.25,oops,1\n")
        with pytest.raises(CsvParseError, match="row 3, column 2"):
            d.load_csv(path, "y")

    def test_non_binary_label(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,y\n0.5,0\n0.25,2\n")
        with pytest.raises(NonBinaryLabelError, match="row 3"):
            d.load_csv(path, "y")

    def test_declared_bound_violation_names_cell(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,y\n0.5,0\n1.5,1\n")
        with pytest.raises(OutOfBoundsError, match="row 3"):
            d.load_csv(path, "y", bounds=[(0.0, 1.0)])

    @pytest.mark.parametrize("bounds", [[["0", True]], [[0, "1"]], [[False, 1.0]]])
    def test_declared_bounds_must_be_numbers(self, tmp_path, bounds):
        path = tmp_path / "t.csv"
        path.write_text("a,y\n0.5,0\n0.25,1\n")
        with pytest.raises(TypeError, match="bound must be a number"):
            d.load_csv(path, "y", bounds=bounds)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("bounds", [None, [(0.0, 1.0)]])
    def test_non_finite_cell_rejected(self, tmp_path, cell, bounds):
        path = tmp_path / "t.csv"
        path.write_text(f"a,y\n0.5,0\n{cell},1\n")
        with pytest.raises(CsvParseError, match=r"row 3, column 1 \('a'\)"):
            d.load_csv(path, "y", bounds=bounds)

    def test_unknown_label_column(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,y\n0.5,0\n")
        with pytest.raises(CsvParseError, match="label"):
            d.load_csv(path, "label")


class TestDataset:
    def test_immutability(self):
        ds = d.synthesize(10, 2, seed=0)
        with pytest.raises(ValueError):
            ds.features[0, 0] = 5.0
        with pytest.raises(ValueError):
            ds.labels[0] = 1

    def test_bounds_enforced_on_construction(self):
        with pytest.raises(OutOfBoundsError):
            d.Dataset(np.array([[2.0]]), np.array([1]), bounds=((0.0, 1.0),))

    @pytest.mark.parametrize("pair", [("0", "1"), (0.0, "1e9"), (False, True), (0, True)])
    def test_bounds_must_be_numbers(self, pair):
        with pytest.raises(TypeError, match="bound must be a number"):
            d.Dataset(np.array([[0.5]]), np.array([1]), bounds=(pair,))

    @pytest.mark.parametrize(
        "pair", [(0, 1), (np.int64(0), np.int64(1)), (np.float32(0.0), 1.0), (-1, np.float64(2))]
    )
    def test_python_and_numpy_numbers_are_bounds(self, pair):
        ds = d.Dataset(np.array([[0.5]]), np.array([1]), bounds=(pair,))
        assert ds.bounds == ((float(pair[0]), float(pair[1])),)
        assert all(type(v) is float for v in ds.bounds[0])

    @pytest.mark.parametrize("pair", [(-np.inf, 1.0), (0.0, np.inf), (np.nan, 1.0), (1.0, 0.0)])
    def test_bounds_must_be_finite_and_increasing(self, pair):
        with pytest.raises(ValueError, match="feature 0 must be finite with low < high"):
            d.Dataset(np.array([[0.5]]), np.array([1]), bounds=(pair,))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_features_rejected(self, value):
        X = np.array([[0.5, 0.5], [0.5, value]])
        with pytest.raises(ValueError, match="feature 1 .* row 2 is not finite"):
            d.Dataset(X, np.array([0, 1]), bounds=((0.0, 1.0), (0.0, 1.0)))

    def test_label_validation(self):
        with pytest.raises(NonBinaryLabelError):
            d.Dataset(np.array([[0.5]]), np.array([2]), bounds=((0.0, 1.0),))

    @pytest.mark.parametrize(
        "labels", [[0.5, 1.0, 1.9], [0.0, 1.0, np.nan]], ids=["fractional", "nan"]
    )
    def test_labels_checked_before_integer_cast(self, labels):
        # an int64 cast first would truncate 0.5 and 1.9, and fail on NaN
        with pytest.raises(NonBinaryLabelError):
            d.Dataset(np.zeros((3, 1)), np.array(labels), bounds=((0.0, 1.0),))
        whole = d.Dataset(np.zeros((3, 1)), np.array([0.0, 1.0, 1.0]), bounds=((0.0, 1.0),))
        assert whole.labels.dtype == np.int64 and whole.labels.tolist() == [0, 1, 1]

    @given(
        shape=st.tuples(st.integers(1, 12), st.integers(1, 4)),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_rows_are_held_feature_major_and_take_gathers_them(self, shape, data):
        n, m = shape
        rows = np.ascontiguousarray(np.arange(n * m, dtype=float).reshape(n, m) / (n * m))
        ds = d.Dataset(rows, np.arange(n) % 2, bounds=((0.0, 1.0),) * m)
        assert ds.features.flags.f_contiguous and np.array_equal(ds.features, rows)
        index = np.array(data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=20)))
        part = ds.take(index)
        assert part.features.flags.f_contiguous
        assert np.array_equal(part.features, ds.features[index])
        assert np.array_equal(part.labels, ds.labels[index])
        assert (part.bounds, part.bounds_derived) == (ds.bounds, ds.bounds_derived)

    def test_take_with_a_mask_selects_its_rows(self):
        ds = d.synthesize(6, 2, seed=1)
        mask = np.array([True, False, False, True, True, False])
        part = ds.take(mask)
        assert np.array_equal(part.features, ds.features[mask])
        assert np.array_equal(part.labels, ds.labels[mask])
        with pytest.raises(IndexError):
            ds.take(mask[:4])
