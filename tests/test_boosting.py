import itertools
import math

import numpy as np
import pytest

import dpgbdt as d
from dpgbdt.accounting import InvalidParameterError
from dpgbdt.boosting import batched_update, raw_scores
from dpgbdt.data import philox
from dpgbdt.federation import ONE_RECORD_PER_CLIENT, FederatedAggregator, partition
from dpgbdt.harness import baseline_preset
from dpgbdt.trees import grow_tree_totally_random

from oracles import logistic, rf_average_prediction


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
            trees.append(
                [
                    {k: v for k, v in t.to_dict().items() if k != "root"}
                    | {"structure": _strip_weights(t.to_dict()["root"])}
                    for t in res.ensemble.trees
                ]
            )
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

    def test_uncentered_batch_variant(self, small_data):
        ds, pop = small_data
        centered = d.train(d.TrainConfig(T=6, B=3, d=2, Q=4, seed=3), pop)
        uncentered = d.train(
            d.TrainConfig(T=6, B=3, d=2, Q=4, seed=3, centered_batch=False), pop
        )
        rc = raw_scores(centered.ensemble, ds.features)
        ru = raw_scores(uncentered.ensemble, ds.features)
        assert not np.allclose(rc, ru)
        again = d.train(
            d.TrainConfig(T=6, B=3, d=2, Q=4, seed=3, centered_batch=False), pop
        )
        assert np.allclose(ru, raw_scores(again.ensemble, ds.features))

    def test_trains_on_sharded_population(self):
        ds = d.synthesize(90, 3, 0.2, 0.5, seed=6)
        pop = partition(ds, 9, "equal-shards", seed=1)
        cfg = d.TrainConfig(T=4, d=2, Q=4, budget=d.PrivacyBudget(2.0, 1e-3), seed=2)
        res = d.train(cfg, pop)
        assert res.queries.as_tuple() == d.count_queries(cfg.with_m(3)).as_tuple()
        probs = d.predict(res.ensemble, ds.features)
        assert probs.shape == (90,)

    def test_quantile_candidates_flag_nonprivate(self, small_data):
        _, pop = small_data
        cfg = d.TrainConfig(
            T=2, d=1, Q=4, candidate_method=d.CandidateMethod.QUANTILE, seed=0
        )
        res = d.train(cfg, pop)
        assert res.nonprivate_candidates
        res2 = d.train(d.TrainConfig(T=2, d=1, Q=4, seed=0), pop)
        assert not res2.nonprivate_candidates


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
            expected = d.count_queries(cfg.with_m(4))
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
            stack = [tree.root]
            while stack:
                node = stack.pop()
                if not node.is_leaf:
                    per_feature[node.feature].add(node.threshold)
                    stack.extend((node.left, node.right))
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
            stack = [tree.root]
            while stack:
                node = stack.pop()
                if not node.is_leaf:
                    later_thresholds.add(node.threshold)
                    stack.extend((node.left, node.right))
        assert later_thresholds - uniform - {ds.bounds[0][1]}


class TestBatchedUpdate:
    def test_zero_weights_noop(self):
        cs = d.uniform_candidates([(0.0, 1.0)], 4)
        trees = []
        for seed in (0, 1):
            t = grow_tree_totally_random(philox(seed), [0], cs, 2)
            t.set_leaf_weights(np.zeros(t.n_leaves))
            trees.append(t)
        X = philox(2).random((10, 1))
        prev = philox(3).normal(0, 1, 10)
        out = batched_update(prev, trees, X, eta=0.5)
        assert np.allclose(out, prev)

    def test_antisymmetric_pair_noop(self):
        cs = d.uniform_candidates([(0.0, 1.0)], 4)
        t1 = grow_tree_totally_random(philox(0), [0], cs, 2)
        t2 = d.Tree.from_dict(t1.to_dict())
        w = philox(1).normal(0, 1, t1.n_leaves)
        t1.set_leaf_weights(w)
        t2.set_leaf_weights(-w)
        X = philox(2).random((20, 1))
        prev = np.zeros(20)
        assert np.allclose(batched_update(prev, [t1, t2], X, eta=1.0), prev)

    def test_scalar_example(self):
        cs = d.uniform_candidates([(0.0, 1.0)], 2)
        tree = grow_tree_totally_random(philox(0), [0], cs, 1)
        tree.set_leaf_weights(np.array([2.0, 2.0]))
        out = batched_update(np.zeros(1), [tree], np.array([[0.5]]), eta=1.0)
        assert out[0] == pytest.approx(logistic(2.0) - 0.5)
        assert out[0] == pytest.approx(0.3807970779778824)

    def test_uncentered_variant_keeps_bias(self):
        cs = d.uniform_candidates([(0.0, 1.0)], 2)
        tree = grow_tree_totally_random(philox(0), [0], cs, 1)
        tree.set_leaf_weights(np.zeros(2))
        out = batched_update(np.zeros(4), [tree], philox(1).random((4, 1)), eta=1.0, centered=False)
        assert np.allclose(out, 0.5)

    def test_empty_batch_rejected(self):
        with pytest.raises(InvalidParameterError):
            batched_update(np.zeros(3), [], np.zeros((3, 1)), eta=0.3)


class TestPredict:
    def test_empty_boosted_ensemble_is_half(self):
        ens = d.Ensemble([], d.UpdateMode.NEWTON, 0.3, 1, True, (), ((0.0, 1.0),))
        assert d.predict(ens, np.array([0.3])) == pytest.approx(0.5)

    def test_averaging_all_ones(self):
        cs = d.uniform_candidates([(0.0, 1.0)], 4)
        trees = []
        for seed in range(3):
            t = grow_tree_totally_random(philox(seed), [0], cs, 2)
            t.set_leaf_weights(np.ones(t.n_leaves))
            trees.append(t)
        ens = d.Ensemble(
            trees, d.UpdateMode.AVERAGING, 0.3, 3, True, ((0, 3),), ((0.0, 1.0),)
        )
        assert d.predict(ens, np.array([0.4])) == pytest.approx(1.0)

    def test_single_tree_sigmoid_of_weight(self):
        cs = d.uniform_candidates([(0.0, 1.0)], 2)
        tree = grow_tree_totally_random(philox(0), [0], cs, 1)
        tree.set_leaf_weights(np.array([0.12, 0.12]))
        ens = d.Ensemble([tree], d.UpdateMode.NEWTON, 0.3, 1, True, ((0, 1),), ((0.0, 1.0),))
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


class TestEnsembleSerialization:
    def test_round_trip(self, small_data, tmp_path):
        ds, pop = small_data
        res = d.train(d.TrainConfig(T=4, d=2, Q=4, B=2, seed=5), pop)
        path = tmp_path / "model.json"
        res.ensemble.save(path)
        back = d.Ensemble.load(path)
        assert np.allclose(d.predict(back, ds.features), d.predict(res.ensemble, ds.features))
        assert back.batch_boundaries == res.ensemble.batch_boundaries


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


def _strip_weights(node):
    if node["kind"] == "leaf":
        return {"kind": "leaf"}
    return {
        "kind": "internal",
        "feature": node["feature"],
        "threshold": node["threshold"],
        "left": _strip_weights(node["left"]),
        "right": _strip_weights(node["right"]),
    }
