import dataclasses
import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest

import dpgbdt as d
import dpgbdt.boosting as boosting
import dpgbdt.candidates as candidates
from dpgbdt.accounting import InvalidParameterError
from dpgbdt.boosting import raw_scores
from dpgbdt.data import philox
from dpgbdt.federation import EQUAL_SHARDS, ONE_RECORD_PER_CLIENT, FederatedAggregator, partition
from dpgbdt.gradients import update_scores
from dpgbdt.harness import PRESET_NAMES, baseline_preset
from dpgbdt.trees import grow_tree_totally_random

from oracles import (
    logistic,
    masked_sigmoid,
    rf_average_prediction,
    stacked_average,
    stacked_update_scores,
)


@pytest.fixture(scope="module")
def small_data():
    ds = d.synthesize(120, 3, 0.3, 0.5, seed=2)
    return ds, partition(ds, None, ONE_RECORD_PER_CLIENT)


class TestTrain:
    def test_b1_scores_are_summed_leaf_weights(self, small_data):
        ds, pop = small_data
        res = d.train(d.TrainConfig(T=3, d=2, Q=4, seed=1), pop)
        raw = raw_scores(res.ensemble, ds.features)
        manual = sum(t.leaf_weights[t.route(ds.features)] for t in res.ensemble.trees)
        assert np.allclose(raw, manual)

    def test_deterministic_given_seed(self, small_data):
        _, pop = small_data
        a = d.train(d.TrainConfig(T=6, d=2, Q=4, seed=9), pop)
        b = d.train(d.TrainConfig(T=6, d=2, Q=4, seed=9), pop)
        assert a.ensemble.to_json_dict() == b.ensemble.to_json_dict()

    def test_tr_structure_independent_of_data_size(self):
        small = d.synthesize(10, 2, 0.0, 0.5, seed=5)
        large = d.synthesize(10_000, 2, 0.0, 0.5, seed=6)
        cfg = d.TrainConfig(T=4, d=3, Q=8, seed=7)
        trees = []
        for ds in (small, large):
            pop = partition(ds, None, ONE_RECORD_PER_CLIENT)
            res = d.train(cfg, pop)
            trees.append([(t.feature.tolist(), t.threshold.tolist()) for t in res.ensemble.trees])
        assert trees[0] == trees[1]

    def test_gradient_barriers_follow_batch_size(self, small_data):
        _, pop = small_data
        for T, B in [(10, 1), (10, 3), (10, 10), (7, 2)]:
            cfg = d.TrainConfig(T=T, B=B, d=2, Q=4, seed=0)
            calls = []
            res_pop = pop
            agg_holder = {}

            orig = FederatedAggregator.recompute_gradients

            def spy(self, mode, _calls=calls):
                _calls.append(mode)
                return orig(self, mode)

            FederatedAggregator.recompute_gradients = spy
            try:
                d.train(cfg, res_pop)
            finally:
                FederatedAggregator.recompute_gradients = orig
            assert len(calls) == math.ceil(T / B), (T, B)

    def test_averaging_runs_single_barrier(self, small_data):
        _, pop = small_data
        calls = []
        orig = FederatedAggregator.recompute_gradients

        def spy(self, mode):
            calls.append(mode)
            return orig(self, mode)

        FederatedAggregator.recompute_gradients = spy
        try:
            d.train(
                d.TrainConfig(T=8, B=1, d=2, Q=4, update_mode=d.UpdateMode.AVERAGING, seed=0),
                pop,
            )
        finally:
            FederatedAggregator.recompute_gradients = orig
        assert len(calls) == 1

    def test_m_mismatch_rejected(self, small_data):
        _, pop = small_data
        with pytest.raises(InvalidParameterError):
            d.train(d.TrainConfig(T=2, d=1, Q=4, m=9, seed=0), pop)

    def test_private_run_requires_declared_bounds(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,y\n0.5,0\n0.25,1\n0.75,0\n0.1,1\n")
        ds = d.load_csv(path, "y")  # bounds derived from data
        pop = partition(ds, None, ONE_RECORD_PER_CLIENT)
        cfg = d.TrainConfig(T=2, d=1, Q=4, budget=d.PrivacyBudget(1.0, 1e-3), seed=0)
        with pytest.raises(InvalidParameterError, match="bounds"):
            d.train(cfg, pop)

    def test_trains_on_sharded_population(self):
        ds = d.synthesize(90, 3, 0.2, 0.5, seed=6)
        pop = partition(ds, 9, "equal-shards", seed=1)
        cfg = d.TrainConfig(T=4, d=2, Q=4, budget=d.PrivacyBudget(2.0, 1e-3), seed=2)
        res = d.train(cfg, pop)
        assert res.queries.as_tuple() == d.count_queries(cfg.replace(m=3)).as_tuple()
        probs = d.predict(res.ensemble, ds.features)
        assert probs.shape == (90,)

    @pytest.mark.parametrize("split", [d.SplitMethod.HIST, d.SplitMethod.PARTIALLY_RANDOM])
    @pytest.mark.parametrize("shards", [None, 7])
    def test_builder_leaf_assignment_equals_route(self, monkeypatch, split, shards):
        ds = d.synthesize(150, 4, 0.3, 0.5, seed=3)
        policy = ONE_RECORD_PER_CLIENT if shards is None else EQUAL_SHARDS
        pop = partition(ds, shards, policy, seed=1)
        batches, routes = [], []
        original_update = FederatedAggregator.apply_score_update
        original_route = d.Tree.route

        def recording_update(self, batch, *args, **kwargs):
            batches.append([(tree, assign.copy()) for tree, assign in batch])
            return original_update(self, batch, *args, **kwargs)

        def counting_route(self, X):
            routes.append(len(X))
            return original_route(self, X)

        monkeypatch.setattr(FederatedAggregator, "apply_score_update", recording_update)
        monkeypatch.setattr(d.Tree, "route", counting_route)
        cfg = baseline_preset("FEVERLESS", T=6, d=3, Q=8, m=4, seed=2)
        d.train(cfg.replace(split_method=split, B=2, budget=d.PrivacyBudget(1.0, 1e-3)), pop)
        # the builders leave every record at its leaf: training routes nothing
        assert routes == []
        monkeypatch.setattr(d.Tree, "route", original_route)
        assert sum(len(batch) for batch in batches) == 6
        for tree, assign in itertools.chain.from_iterable(batches):
            assert np.array_equal(assign, tree.route(pop.features))

    def test_quantile_candidates_flag_nonprivate(self, small_data):
        _, pop = small_data
        cfg = d.TrainConfig(
            T=2, d=1, Q=4, candidate_method=d.CandidateMethod.QUANTILE, seed=0
        )
        res = d.train(cfg, pop)
        assert d.run_record(res.config, res.rounds)["nonprivate_candidates"] is True
        res2 = d.train(d.TrainConfig(T=2, d=1, Q=4, seed=0), pop)
        assert d.run_record(res2.config, res2.rounds)["nonprivate_candidates"] is False


class TestLedgerConservation:
    def test_sweep_matches_count_queries(self):
        ds = d.synthesize(48, 4, 0.2, 0.5, seed=3)
        pop = partition(ds, None, ONE_RECORD_PER_CLIENT)
        split_methods = list(d.SplitMethod)
        candidate_methods = [d.CandidateMethod.UNIFORM, d.CandidateMethod.ITERATIVE_HESSIAN]
        for split, cand, B, k in itertools.product(
            split_methods, candidate_methods, [1, 2, 5], [1, 2, 4]
        ):
            cfg = d.TrainConfig(
                T=5,
                d=2,
                Q=4,
                split_method=split,
                candidate_method=cand,
                ih_rounds=2,
                B=B,
                k=k,
                seed=11,
                budget=d.PrivacyBudget(5.0, 1e-3),
            )
            res = d.train(cfg, pop)
            expected = d.count_queries(cfg.replace(m=4))
            assert res.queries.as_tuple() == expected.as_tuple(), (split, cand, B, k)

    def test_tr_spy_sees_no_structure_queries(self, small_data):
        _, pop = small_data
        res = d.train(d.TrainConfig(T=7, d=3, Q=4, seed=2), pop)
        assert res.queries.kappa_s == 0
        assert res.queries.kappa_w == 7


class TestRefinementSchedule:
    def test_tr_candidates_freeze_after_s_rounds(self):
        # after the s refinement rounds every later tree draws thresholds
        # from one fixed grid of at most Q values per feature
        ds = d.synthesize(2000, 2, 1.0, 0.5, seed=14)
        pop = partition(ds, None, ONE_RECORD_PER_CLIENT)
        s, Q = 3, 4
        cfg = d.TrainConfig(
            T=40, d=2, Q=Q, candidate_method=d.CandidateMethod.ITERATIVE_HESSIAN,
            ih_rounds=s, seed=6,
        )
        res = d.train(cfg, pop)
        assert res.queries.kappa_c == s * 2
        per_feature: dict[int, set] = {0: set(), 1: set()}
        for tree in res.ensemble.trees[s:]:
            for j, threshold in zip(tree.feature.tolist(), tree.threshold.tolist()):
                per_feature[j].add(threshold)
        for j, thresholds in per_feature.items():
            # the routing value for the last candidate is the upper bound
            assert len(thresholds) <= Q + 1, j

    def test_hist_refinement_is_free_and_moves_the_grid(self):
        # skewed single feature: refined thresholds leave the uniform grid,
        # at zero candidate-query cost
        ds = d.synthesize(3000, 1, 1.0, 0.5, seed=15)
        pop = partition(ds, None, ONE_RECORD_PER_CLIENT)
        cfg = d.TrainConfig(
            T=4, d=2, Q=8, split_method=d.SplitMethod.HIST,
            candidate_method=d.CandidateMethod.ITERATIVE_HESSIAN, ih_rounds=3, seed=6,
        )
        res = d.train(cfg, pop)
        assert res.queries.kappa_c == 0
        uniform = set(np.linspace(*ds.bounds[0], 8))
        later_thresholds = set()
        for tree in res.ensemble.trees[1:]:
            later_thresholds.update(tree.threshold.tolist())
        assert later_thresholds - uniform - {ds.bounds[0][1]}


    @pytest.mark.parametrize("T", [3, 8])
    @pytest.mark.parametrize("method", list(d.SplitMethod))
    def test_refinement_runs_at_the_planned_trees(self, small_data, monkeypatch, method, T):
        # hist refines for free from the previous tree's root Hessians at
        # trees 1..min(s, T - 1); tr and pr pay a candidate round at trees
        # 0..min(s, T) - 1
        _, pop = small_data
        s = 5
        tree, roots, calls = [None], [], []  # calls: (tree index, Hessian columns seen)
        select = boosting.select_features
        refine = boosting.iterative_hessian_refine
        refine_feature = candidates._refine_feature
        grow = boosting.grow_tree

        def tracked_select(mode, k, t, *args):
            tree[0] = t
            return select(mode, k, t, *args)

        def tracked_refine(*args):
            calls.append((tree[0], []))
            return refine(*args)

        def tracked_refine_feature(hess, *args):
            calls[-1][1].append(hess)
            return refine_feature(hess, *args)

        def tracked_grow(*args):
            out = grow(*args)
            roots.append(out[2])
            return out

        monkeypatch.setattr(boosting, "select_features", tracked_select)
        monkeypatch.setattr(boosting, "iterative_hessian_refine", tracked_refine)
        monkeypatch.setattr(candidates, "_refine_feature", tracked_refine_feature)
        monkeypatch.setattr(boosting, "grow_tree", tracked_grow)
        cfg = d.TrainConfig(
            T=T, d=2, Q=4, split_method=method,
            candidate_method=d.CandidateMethod.ITERATIVE_HESSIAN, ih_rounds=s, seed=3,
        )
        res = d.train(cfg, pop)
        refined_at = [t for t, _ in calls]
        if method is d.SplitMethod.HIST:
            assert refined_at == list(range(1, min(s, T - 1) + 1))
            for t, columns in calls:
                previous = list(roots[t - 1].values())
                assert len(columns) == len(previous) == pop.m
                assert all(np.array_equal(a, b) for a, b in zip(columns, previous))
            assert res.queries.kappa_c == 0
        else:
            assert refined_at == list(range(min(s, T)))
            assert res.queries.kappa_c == d.count_queries(res.config).kappa_c > 0


def batch_update(prev, trees, X, eta):
    """``update_scores`` for a batch of B > 1 trees routed on X."""
    W = np.asarray([t.leaf_weights[t.route(X)] for t in trees]).reshape(len(trees), len(X))
    return update_scores(prev, W, eta, plain=False)


class TestBatchedUpdate:
    def test_zero_weights_noop(self):
        cs = d.uniform_candidates([(0.0, 1.0)], 4)
        trees = []
        for seed in (0, 1):
            t = grow_tree_totally_random(philox(seed), [0], cs, 2)
            t.leaf_weights = np.zeros(t.n_leaves)
            trees.append(t)
        X = philox(2).random((10, 1))
        prev = philox(3).normal(0, 1, 10)
        out = batch_update(prev, trees, X, eta=0.5)
        assert np.allclose(out, prev)

    def test_antisymmetric_pair_noop(self):
        cs = d.uniform_candidates([(0.0, 1.0)], 4)
        t1 = grow_tree_totally_random(philox(0), [0], cs, 2)
        t2 = d.Tree.from_dict(t1.to_dict())
        w = philox(1).normal(0, 1, t1.n_leaves)
        t1.leaf_weights = w
        t2.leaf_weights = -w
        X = philox(2).random((20, 1))
        prev = np.zeros(20)
        assert np.allclose(batch_update(prev, [t1, t2], X, eta=1.0), prev)

    def test_scalar_example(self):
        cs = d.uniform_candidates([(0.0, 1.0)], 2)
        tree = grow_tree_totally_random(philox(0), [0], cs, 1)
        tree.leaf_weights = np.array([2.0, 2.0])
        out = batch_update(np.zeros(1), [tree], np.array([[0.5]]), eta=1.0)
        assert out[0] == pytest.approx(logistic(2.0) - 0.5)
        assert out[0] == pytest.approx(0.3807970779778824)

    def test_empty_batch_rejected(self):
        with pytest.raises(InvalidParameterError):
            batch_update(np.zeros(3), [], np.zeros((3, 1)), eta=0.3)


class TestPredict:
    def test_empty_boosted_ensemble_is_half(self):
        ens = d.Ensemble([], d.UpdateMode.NEWTON, 0.3, 1, ((0.0, 1.0),))
        assert d.predict(ens, np.array([0.3])) == pytest.approx(0.5)

    def test_averaging_all_ones(self):
        cs = d.uniform_candidates([(0.0, 1.0)], 4)
        trees = []
        for seed in range(3):
            t = grow_tree_totally_random(philox(seed), [0], cs, 2)
            t.leaf_weights = np.ones(t.n_leaves)
            trees.append(t)
        ens = d.Ensemble(trees, d.UpdateMode.AVERAGING, 0.3, 3, ((0.0, 1.0),))
        assert d.predict(ens, np.array([0.4])) == pytest.approx(1.0)

    def test_single_tree_sigmoid_of_weight(self):
        cs = d.uniform_candidates([(0.0, 1.0)], 2)
        tree = grow_tree_totally_random(philox(0), [0], cs, 1)
        tree.leaf_weights = np.array([0.12, 0.12])
        ens = d.Ensemble([tree], d.UpdateMode.NEWTON, 0.3, 1, ((0.0, 1.0),))
        assert d.predict(ens, np.array([0.7])) == pytest.approx(logistic(0.12))

    def test_matrix_input_and_clamping(self, small_data):
        ds, pop = small_data
        res = d.train(d.TrainConfig(T=3, d=2, Q=4, seed=1), pop)
        inside = d.predict(res.ensemble, ds.features)
        shifted = ds.features.copy()
        shifted[:, 0] = shifted[:, 0] + 10 * (ds.bounds[0][1] + 1)  # way out of bounds
        clamped = d.predict(res.ensemble, shifted)
        hi = ds.bounds[0][1]
        manual = ds.features.copy()
        manual[:, 0] = hi
        assert np.allclose(clamped, d.predict(res.ensemble, manual))
        assert inside.shape == (ds.n,)

    def test_dimension_mismatch(self, small_data):
        _, pop = small_data
        res = d.train(d.TrainConfig(T=2, d=1, Q=4, seed=1), pop)
        with pytest.raises(InvalidParameterError):
            d.predict(res.ensemble, np.zeros((4, 9)))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("mode", [d.UpdateMode.NEWTON, d.UpdateMode.AVERAGING])
    def test_non_finite_features_rejected(self, small_data, value, mode):
        ds, pop = small_data
        res = d.train(d.TrainConfig(T=2, d=1, Q=4, B=2, update_mode=mode, seed=1), pop)
        X = ds.features.copy()
        X[3, 1] = value
        with pytest.raises(InvalidParameterError, match="finite"):
            d.predict(res.ensemble, X)
        if mode is d.UpdateMode.NEWTON:
            with pytest.raises(InvalidParameterError, match="finite"):
                raw_scores(res.ensemble, X)

    def test_private_averaging_predictions_are_probabilities(self):
        # noisy leaf proportions leave [0, 1] on this data; the average must not
        data = d.synthesize(20_000, 10, 0.3, 0.3, seed=0)
        pair = d.train_test_split(data, 0.7, seed=0)
        pop = partition(pair.train, None, ONE_RECORD_PER_CLIENT)
        cfg = baseline_preset("DP-RF", seed=0).replace(budget=d.budget_for(1.0, pop.n))
        res = d.train(cfg, pop)
        leaves = np.concatenate([t.leaf_weights for t in res.ensemble.trees])
        assert leaves.min() < 0.0 and leaves.max() > 1.0
        probs = d.predict(res.ensemble, pair.test.features)
        assert probs.min() >= 0.0 and probs.max() <= 1.0

    def test_averaging_prediction_matches_oracle(self, small_data):
        ds, pop = small_data
        cfg = d.TrainConfig(T=5, d=2, Q=4, update_mode=d.UpdateMode.AVERAGING, B=5, seed=3)
        res = d.train(cfg, pop)
        pred = d.predict(res.ensemble, ds.features)
        oracle = rf_average_prediction([t.to_dict() for t in res.ensemble.trees], ds.features)
        assert np.allclose(pred, oracle)

    def test_averaging_predict_bit_equals_stacked_mean(self, small_data):
        ds, pop = small_data
        cfg = d.TrainConfig(T=12, d=2, Q=4, update_mode=d.UpdateMode.AVERAGING, seed=3)
        ensemble = d.train(cfg.replace(budget=d.PrivacyBudget(1.0, 1e-3)), pop).ensemble
        want = stacked_average([t.leaf_weights[t.route(ds.features)] for t in ensemble.trees])
        assert np.array_equal(d.predict(ensemble, ds.features), want)

    @pytest.mark.parametrize("mode", [d.UpdateMode.AVERAGING, d.UpdateMode.NEWTON])
    def test_one_record_predicts_as_its_row(self, mode):
        # one batch of 50 trees: a record's score must not depend on the rows beside it
        ds = d.synthesize(300, 3, 0.3, 0.5, seed=2)
        pop = partition(ds, None, ONE_RECORD_PER_CLIENT)
        cfg = d.TrainConfig(T=50, d=3, Q=8, B=50, update_mode=mode, seed=1)
        ensemble = d.train(cfg.replace(budget=d.PrivacyBudget(1.0, 1e-3)), pop).ensemble
        rows = d.predict(ensemble, ds.features)
        assert [d.predict(ensemble, x) for x in ds.features] == rows.tolist()


class TestNarrowIdGathers:
    """Leaf weights gathered at narrow leaf ids equal int64 fancy indexing."""

    @pytest.fixture(scope="class")
    def deep(self):
        ds = d.synthesize(3000, 3, 0.3, 0.5, seed=4)
        cs = d.uniform_candidates(ds.bounds, 16)
        trees = []
        for seed in range(5):
            tree = grow_tree_totally_random(philox(seed), range(3), cs, 9)
            tree.leaf_weights = philox(10 + seed).normal(0.0, 1.0, tree.n_leaves)
            trees.append(tree)
        leaves = trees[0].route(ds.features)
        assert leaves.dtype == np.uint16 and leaves.max() > 255
        return ds, trees

    @staticmethod
    def wide_weights(trees, X):
        return [t.leaf_weights[t.route(X).astype(np.int64)] for t in trees]

    @pytest.mark.parametrize("batch_size", [1, 2, 5])
    def test_depth_nine_scores_equal_the_stacked_formula(self, deep, batch_size):
        ds, trees = deep
        ensemble = d.Ensemble(trees, d.UpdateMode.NEWTON, 0.3, batch_size, ds.bounds)
        want = np.zeros(ds.n)
        for start in range(0, len(trees), batch_size):
            W = np.stack(self.wide_weights(trees[start : start + batch_size], ds.features))
            want = stacked_update_scores(want, W, 0.3, plain=(batch_size == 1))
        assert np.array_equal(raw_scores(ensemble, ds.features), want)
        assert np.array_equal(d.predict(ensemble, ds.features), masked_sigmoid(want))

    def test_depth_nine_average_equals_the_stacked_mean(self, deep):
        ds, trees = deep
        trees = [dataclasses.replace(t, leaf_weights=np.abs(t.leaf_weights) / 4.0) for t in trees]
        ensemble = d.Ensemble(trees, d.UpdateMode.AVERAGING, 0.3, len(trees), ds.bounds)
        want = stacked_average(self.wide_weights(trees, ds.features))
        assert np.array_equal(d.predict(ensemble, ds.features), want)


class TestEnsembleSerialization:
    def test_round_trip(self, small_data, tmp_path):
        ds, pop = small_data
        res = d.train(d.TrainConfig(T=4, d=2, Q=4, B=2, seed=5), pop)
        path = tmp_path / "model.json"
        res.ensemble.save(path)
        back = d.Ensemble.load(path)
        assert np.allclose(d.predict(back, ds.features), d.predict(res.ensemble, ds.features))
        assert back.to_json_dict() == res.ensemble.to_json_dict()

    @pytest.fixture
    def payload(self, small_data):
        _, pop = small_data
        return d.train(d.TrainConfig(T=1, d=1, Q=4, seed=5), pop).ensemble.to_json_dict()

    def test_incomplete_tree_rejected(self, payload):
        payload["trees"][0]["leaf_weights"] += [0.0, 0.0]  # the splits stop at depth 1
        with pytest.raises(InvalidParameterError, match="complete"):
            d.Tree.from_dict(payload["trees"][0])
        with pytest.raises(InvalidParameterError, match="complete"):
            d.Ensemble.from_json_dict(payload)

    @pytest.mark.parametrize("feature", [-1, 3])
    def test_feature_outside_bounds_rejected(self, payload, feature):
        payload["trees"][0]["feature"][0] = feature
        with pytest.raises(InvalidParameterError, match="feature"):
            d.Ensemble.from_json_dict(payload)

    @pytest.mark.parametrize("field", ["threshold", "weight"])
    def test_non_finite_value_rejected(self, payload, field):
        key = "threshold" if field == "threshold" else "leaf_weights"
        payload["trees"][0][key][0] = float("nan")
        with pytest.raises(InvalidParameterError, match="non-finite"):
            d.Ensemble.from_json_dict(payload)

    @pytest.mark.parametrize("eta", [float("nan"), float("inf"), 0.0, -1.0])
    def test_eta_must_be_positive_and_finite(self, payload, eta):
        payload["eta"] = eta
        with pytest.raises(InvalidParameterError, match="eta"):
            d.Ensemble.from_json_dict(payload)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda p: p.pop("eta"),
            lambda p: p["trees"][0].pop("feature"),
            lambda p: p.update(eta="abc"),
            lambda p: p.update(update_mode="foo"),
            lambda p: p["trees"][0]["feature"].__setitem__(0, "x"),
            lambda p: p.update(trees=5),
        ],
        ids=["no-eta", "no-feature", "eta-abc", "update-mode-foo", "feature-x", "trees-int"],
    )
    def test_malformed_json_rejected(self, payload, edit):
        edit(payload)
        with pytest.raises(InvalidParameterError, match="malformed"):
            d.Ensemble.from_json_dict(payload)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda t: t.pop("leaf_weights"),
            lambda t: t["feature"].__setitem__(0, "x"),
            # a key the loader does not read would otherwise be dropped without a word
            lambda t: t.update(kind="internal"),
        ],
        ids=["no-leaf-weights", "feature-x", "unknown-key"],
    )
    def test_malformed_tree_rejected(self, payload, edit):
        tree = payload["trees"][0]
        edit(tree)
        with pytest.raises(InvalidParameterError, match="malformed tree"):
            d.Tree.from_dict(tree)
        with pytest.raises(InvalidParameterError, match="malformed tree"):
            d.Ensemble.from_json_dict(payload)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda p: p.update(batch_size=2.9),
            lambda p: p.update(batch_size=1.0),
            lambda p: p.update(batch_size=True),
            lambda p: p.update(eta="0.3"),
            lambda p: p.update(eta=True),
            lambda p: p["trees"][0]["feature"].__setitem__(0, 1.7),
            lambda p: p["trees"][0]["feature"].__setitem__(0, False),
            lambda p: p["trees"][0]["threshold"].__setitem__(0, "0.5"),
            lambda p: p["trees"][0]["threshold"].__setitem__(0, True),
            lambda p: p["trees"][0]["leaf_weights"].__setitem__(0, "0.1"),
            lambda p: p["trees"][0]["leaf_weights"].__setitem__(0, False),
            lambda p: p["bounds"][0].__setitem__(1, "1e9"),
            lambda p: p["bounds"][0].__setitem__(1, True),
            # bound pairs follow the rule Dataset applies: finite, low < high
            lambda p: p["bounds"].__setitem__(0, [float("nan"), 1.0]),
            lambda p: p["bounds"].__setitem__(0, [0.0, float("inf")]),
            lambda p: p["bounds"].__setitem__(0, [1.0, 0.0]),
            lambda p: p["bounds"].__setitem__(0, [0.5, 0.5]),
        ],
        ids=[
            "batch-size-2.9", "batch-size-1.0",
            "batch-size-bool", "eta-string", "eta-bool", "feature-1.7", "feature-bool",
            "threshold-string", "threshold-bool", "weight-string", "weight-bool",
            "bound-string", "bound-bool", "bounds-nan", "bounds-inf", "bounds-reversed",
            "bounds-empty",
        ],
    )
    def test_mistyped_fields_rejected(self, payload, edit):
        # the trained model, through JSON text, loads as written
        payload = json.loads(json.dumps(payload))
        d.Ensemble.from_json_dict(payload)
        edit(payload)
        with pytest.raises(InvalidParameterError, match="malformed"):
            d.Ensemble.from_json_dict(payload)

    @pytest.mark.parametrize(
        "extra",
        [{"centered_batch": True}, {"centered_batch": False}, {"batch_boundaries": [[0, 1]]}],
        ids=["centered-true", "centered-false", "batch-boundaries"],
    )
    def test_unknown_key_rejected(self, payload, extra):
        # a key the loader does not read would otherwise be ignored without a word
        payload.update(extra)
        with pytest.raises(InvalidParameterError, match="malformed model JSON: keys"):
            d.Ensemble.from_json_dict(payload)

    def test_old_nested_format_rejected(self, payload):
        # the nested form of earlier versions: no reader is kept for it
        payload["batch_boundaries"] = [[0, 1]]
        payload["trees"][0] = {
            "max_depth": 1,
            "feature_subset": [0, 1, 2],
            "root": {
                "kind": "internal", "feature": 0, "threshold": 0.5,
                "left": {"kind": "leaf", "weight": 0.1},
                "right": {"kind": "leaf", "weight": -0.1},
            },
        }
        with pytest.raises(InvalidParameterError, match="malformed"):
            d.Ensemble.from_json_dict(payload)

    @pytest.mark.parametrize("batch_size", [0, -1])
    def test_batch_size_must_be_positive(self, payload, batch_size):
        payload["batch_size"] = batch_size
        with pytest.raises(InvalidParameterError, match="batch_size"):
            d.Ensemble.from_json_dict(payload)

    @pytest.mark.parametrize("batch_size", [1, 2, 3, 5])
    def test_batch_size_sets_the_replay_schedule(self, small_data, batch_size):
        ds, pop = small_data
        payload = d.train(d.TrainConfig(T=5, d=1, Q=4, B=2, seed=5), pop).ensemble.to_json_dict()
        payload["batch_size"] = batch_size
        ensemble = d.Ensemble.from_json_dict(payload)
        # runs of batch_size trees, the last possibly shorter
        want = np.zeros(ds.n)
        for start in range(0, 5, batch_size):
            batch = ensemble.trees[start : start + batch_size]
            W = np.stack([t.leaf_weights[t.route(ds.features)] for t in batch])
            want = stacked_update_scores(want, W, ensemble.eta, plain=(batch_size == 1))
        assert np.array_equal(raw_scores(ensemble, ds.features), want)

    @pytest.mark.parametrize("B", [1, 2, 5])
    def test_averaging_model_is_one_batch(self, small_data, B):
        ds, pop = small_data
        cfg = d.TrainConfig(T=5, d=1, Q=4, B=B, update_mode=d.UpdateMode.AVERAGING)
        # an averaging config says B = T wherever it is read, whatever B it was given
        assert cfg.B == cfg.to_flat_dict()["B"] == 5
        assert cfg.replace(T=3).B == 3
        rf = baseline_preset("DP-RF", T=5, m=3)
        assert d.run_record(rf, d.plan(rf))["B"] == 5
        ensemble = d.train(cfg, pop).ensemble
        payload = ensemble.to_json_dict()
        assert payload["batch_size"] == 5
        back = d.Ensemble.from_json_dict(payload)
        assert np.array_equal(d.predict(back, ds.features), d.predict(ensemble, ds.features))

    @pytest.mark.parametrize("name", PRESET_NAMES)
    @pytest.mark.parametrize("B", [None, 3])
    def test_every_preset_model_loads(self, small_data, name, B):
        ds, pop = small_data
        # T = 7: the batched preset (B = 2) and B = 3 leave a short last batch
        cfg = baseline_preset(name, T=7, d=2, Q=4, ih_rounds=2, m=3, seed=5)
        cfg = cfg.replace(budget=d.PrivacyBudget(1.0, 1e-3), B=B or cfg.B)
        ensemble = d.train(cfg, pop).ensemble
        back = d.Ensemble.from_json_dict(json.loads(json.dumps(ensemble.to_json_dict())))
        assert np.array_equal(d.predict(back, ds.features), d.predict(ensemble, ds.features))


def _peak_bytes(fn, *args) -> int:
    """Peak traced allocation, in bytes, while ``fn(*args)`` runs."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestWorkingSet:
    """A batch's working set is O(n): no (trees, n) stack in training or prediction."""

    N = 20_000

    @pytest.fixture(scope="class")
    def X(self):
        return np.random.default_rng(9).uniform(size=(self.N, 3))

    @pytest.mark.parametrize("mode", [d.UpdateMode.AVERAGING, d.UpdateMode.NEWTON])
    def test_predict_peak_does_not_grow_with_trees(self, small_data, X, mode):
        _, pop = small_data
        cfg = d.TrainConfig(T=24, d=2, Q=4, B=24, update_mode=mode, seed=6)
        ensemble = d.train(cfg, pop).ensemble
        ensembles = [
            dataclasses.replace(ensemble, trees=ensemble.trees[:T], batch_size=T) for T in (2, 24)
        ]
        peaks = [_peak_bytes(d.predict, ens, X) for ens in ensembles]
        # 22 more trees in the one batch may not cost even one more float per record
        assert peaks[1] - peaks[0] < 8 * self.N

    @pytest.mark.parametrize("split_method", [d.SplitMethod.TOTALLY_RANDOM, d.SplitMethod.HIST])
    def test_batch_holds_under_two_bytes_per_record_per_tree(self, split_method):
        ds = d.synthesize(self.N, 3, 0.3, 0.5, seed=7)
        pop = partition(ds, None, ONE_RECORD_PER_CLIENT)
        cfg = d.TrainConfig(d=2, Q=4, split_method=split_method, seed=8)
        small, large = 4, 20
        peaks = [_peak_bytes(d.train, cfg.replace(T=T, B=T), pop) for T in (small, large)]
        assert (peaks[1] - peaks[0]) / (self.N * (large - small)) < 2


class TestLearning:
    def test_monotone_auc_on_separable_data(self):
        X = np.random.default_rng(0).random((400, 2))
        y = (X[:, 0] > 0.55).astype(int)
        sep = d.Dataset(X, y, ((0.0, 1.0), (0.0, 1.0)))
        pop = partition(sep, None, ONE_RECORD_PER_CLIENT)
        aucs = []
        for T in range(1, 11):
            cfg = d.TrainConfig(T=T, d=3, Q=16, split_method=d.SplitMethod.HIST, seed=0)
            res = d.train(cfg, pop)
            aucs.append(d.auc_roc(sep.labels, d.predict(res.ensemble, sep.features)))
        assert all(b >= a - 1e-12 for a, b in zip(aucs, aucs[1:]))
        assert aucs[-1] > 0.99

    def test_noise_off_beats_chance_every_method(self, small_data):
        ds, pop = small_data
        for split in d.SplitMethod:
            cfg = d.TrainConfig(
                T=30 if split is d.SplitMethod.TOTALLY_RANDOM else 8,
                d=3,
                Q=8,
                split_method=split,
                seed=4,
            )
            res = d.train(cfg, pop)
            auc = d.auc_roc(ds.labels, d.predict(res.ensemble, ds.features))
            assert auc > 0.6, split

