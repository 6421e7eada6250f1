import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dpgbdt as d
from dpgbdt.accounting import InvalidParameterError
from dpgbdt.data import philox
from dpgbdt.federation import (
    EQUAL_SHARDS,
    ONE_RECORD_PER_CLIENT,
    ClientPopulation,
    FederatedAggregator,
    FixedPointCodec,
    partition,
)
from dpgbdt.trees import _preorder, grow_tree, grow_tree_totally_random

from oracles import (
    collect_structure,
    reference_greedy_tree,
    route_tree_dict,
    scalar_leaf_weight,
    scalar_postprocess,
    split_gain,
)


def exact_aggregator(ds, mode=d.UpdateMode.NEWTON):
    pop = partition(ds, None, ONE_RECORD_PER_CLIENT)
    agg = FederatedAggregator(pop, codec=FixedPointCodec(precision_bits=40))
    agg.recompute_gradients(mode)
    return agg


HIST, PR = d.SplitMethod.HIST, d.SplitMethod.PARTIALLY_RANDOM


def quantile_set(ds, Q):
    per = tuple(
        d.quantile_candidates(np.sort(ds.features[:, j]), Q, ds.bounds[j])
        for j in range(ds.m)
    )
    return d.SplitCandidateSet(per, ds.bounds)


def preorder(depth):
    """Internal heap ids of a depth-``depth`` tree: node, left subtree, right subtree."""
    order, stack = [], [0]
    while stack:
        heap = stack.pop()
        if heap < 2**depth - 1:
            order.append(heap)
            stack += [2 * heap + 2, 2 * heap + 1]
    return order


def structure_of(tree, cand_set):
    """(feature, candidate index) per internal node in preorder."""
    payload = tree.to_dict()
    out = []

    def walk(heap):
        if heap >= len(payload["feature"]):
            return
        feature = payload["feature"][heap]
        cands = cand_set.per_feature[feature]
        hits = np.where(np.isclose(cands, payload["threshold"][heap]))[0]
        c = int(hits[-1]) if hits.size else cands.size - 1
        out.append((feature, c))
        walk(2 * heap + 1)
        walk(2 * heap + 2)

    walk(0)
    return out


class TestSplitScore:
    def test_symmetric_example(self):
        assert d.split_score(-2, 1, 2, 1, lam=1, gamma=0) == pytest.approx(2.0)

    def test_zero_gradients(self):
        assert d.split_score(0, 3, 0, 7, lam=1, gamma=0) == pytest.approx(0.0)

    def test_one_sided(self):
        assert d.split_score(1, 0.25, 0, 0, lam=1, gamma=0.5) == pytest.approx(-0.5)

    def test_zero_denominator_scores_zero_or_inf(self):
        # lam = 0 with a side of no Hessian mass: 0 without gradient, inf with
        assert d.split_score(1, 0, 1, 0, lam=0, gamma=0) == math.inf
        assert d.split_score(1, -2, 1, 1, lam=0, gamma=0) == math.inf
        assert d.split_score(0, 0, 0, 0, lam=0, gamma=0) == 0.0
        assert d.split_score(0, -1, 2, 1, lam=0, gamma=0) == pytest.approx(0.0)

    def test_cancelling_infinities_score_minus_inf(self):
        # lam = 0 with subnormal Hessian sums: the side terms and the parent
        # overflow to inf, and inf - inf would be nan
        for sides in [(0.0, 0.0, 1.0, 2.2e-311), (1.0, 1e-311, 1.0, 1e-311)]:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert d.split_score(*sides, lam=0, gamma=0) == -math.inf
                assert d.split_score(*(np.array([v]) for v in sides), 0, 0.5)[0] == -math.inf
            assert split_gain(*sides, 0, 0) == -math.inf

    def test_negative_hessians_floored(self):
        assert d.split_score(1, -5, 1, -5, lam=1, gamma=0) == d.split_score(
            1, 0, 1, 0, lam=1, gamma=0
        )

    @given(
        sides=st.lists(
            st.tuples(
                st.one_of(st.just(0.0), st.floats(-1e3, 1e3)),
                st.one_of(st.just(0.0), st.floats(-10, 1e3)),
                st.one_of(st.just(0.0), st.floats(-1e3, 1e3)),
                st.one_of(st.just(0.0), st.floats(-10, 1e3)),
            ),
            min_size=1,
            max_size=8,
        ),
        lam=st.one_of(st.just(0.0), st.floats(0, 5)),
        gamma=st.floats(0, 3),
    )
    @settings(max_examples=200)
    def test_matches_scalar_formula(self, sides, lam, gamma):
        GL, HL, GR, HR = (np.array(column) for column in zip(*sides))
        got = d.split_score(GL, HL, GR, HR, lam, gamma)
        want = [split_gain(*side, lam, gamma) for side in sides]
        assert got.shape == GL.shape
        # equal bit for bit, and never nan
        assert np.array_equal(got, want)

    @given(
        gl=st.floats(-10, 10),
        gr=st.floats(-10, 10),
        hl=st.floats(0, 10),
        hr=st.floats(0, 10),
        shift=st.floats(0, 3),
    )
    @settings(max_examples=100)
    def test_gamma_shifts_score_uniformly(self, gl, gr, hl, hr, shift):
        base = d.split_score(gl, hl, gr, hr, lam=1, gamma=0)
        shifted = d.split_score(gl, hl, gr, hr, lam=1, gamma=shift)
        assert shifted == pytest.approx(base - shift, abs=1e-9)


class TestLeafWeight:
    def test_newton(self):
        assert d.leaf_weight(-2, 4, 1, d.UpdateMode.NEWTON) == pytest.approx(0.4)

    def test_gradient(self):
        assert d.leaf_weight(3, 5, 1, d.UpdateMode.GRADIENT) == pytest.approx(-0.5)

    def test_averaging_proportion(self):
        assert d.leaf_weight(3, 10, 0, d.UpdateMode.AVERAGING) == pytest.approx(0.3)

    def test_denominator_error(self):
        with pytest.raises(InvalidParameterError):
            d.leaf_weight(1, -3, 0, d.UpdateMode.NEWTON)
        with pytest.raises(InvalidParameterError):  # one bad leaf among good ones
            d.leaf_weight(np.ones(3), np.array([2.0, -3.0, 1.0]), 0, d.UpdateMode.NEWTON)

    @given(
        leaves=st.lists(st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)), max_size=16),
        lam=st.floats(0.01, 10),
        mode=st.sampled_from(list(d.UpdateMode)),
    )
    @settings(max_examples=100)
    def test_array_of_leaves_matches_scalar_formula(self, leaves, lam, mode):
        G, H = np.array(leaves, dtype=float).reshape(-1, 2).T
        want = [scalar_leaf_weight(g, h, lam, mode is d.UpdateMode.AVERAGING) for g, h in leaves]
        out = d.leaf_weight(G, H, lam, mode)
        assert out.tolist() == want
        assert np.signbit(out).tolist() == [math.copysign(1.0, x) < 0 for x in want]


class TestPostprocess:
    def test_scale_only(self):
        assert d.postprocess_weight(0.4, eta=0.3, beta=2) == pytest.approx(0.12)

    def test_clip(self):
        assert d.postprocess_weight(-5, eta=1, beta=2) == pytest.approx(-2.0)

    def test_zero(self):
        assert d.postprocess_weight(0.0, eta=0.7, beta=3) == 0.0

    def test_beta_zero_disables_leaf(self):
        assert d.postprocess_weight(1.5, eta=0.3, beta=0) == 0.0

    def test_eta_validation(self):
        with pytest.raises(InvalidParameterError):
            d.postprocess_weight(1.0, eta=0.0, beta=1)

    @given(
        w=st.lists(st.floats(-50, 50), max_size=16), eta=st.floats(0.01, 2), beta=st.floats(0, 5)
    )
    @settings(max_examples=100)
    def test_array_matches_scalar_formula(self, w, eta, beta):
        out = d.postprocess_weight(np.array(w, dtype=float), eta, beta)
        want = [scalar_postprocess(x, eta, beta) for x in w]
        assert out.tolist() == want
        assert np.signbit(out).tolist() == [math.copysign(1.0, x) < 0 for x in want]

    @given(w=st.floats(-50, 50), eta=st.floats(0.01, 2), beta=st.floats(0, 5))
    @settings(max_examples=100)
    def test_sign_preserved_magnitude_capped(self, w, eta, beta):
        out = d.postprocess_weight(w, eta, beta)
        assert abs(out) <= eta * beta + 1e-12
        if w != 0 and beta > 0:
            assert np.sign(out) == np.sign(w) or out == 0.0


class TestSelectFeatures:
    def test_cyclical_single(self):
        rng = philox(0)
        assert d.select_features("cyclical", 1, 13, 10, rng) == (3,)

    def test_cyclical_full(self):
        rng = philox(0)
        for t in range(5):
            assert d.select_features("cyclical", 10, t, 10, rng) == tuple(range(10))

    def test_cyclical_wraps(self):
        rng = philox(0)
        assert d.select_features("cyclical", 3, 3, 10, rng) == (0, 1, 9)

    def test_random_deterministic(self):
        a = d.select_features("random", 3, 0, 10, philox(5))
        b = d.select_features("random", 3, 0, 10, philox(5))
        assert a == b
        assert len(set(a)) == 3

    def test_k_validation(self):
        with pytest.raises(InvalidParameterError):
            d.select_features("cyclical", 0, 0, 5, philox(0))
        with pytest.raises(InvalidParameterError):
            d.select_features("cyclical", 6, 0, 5, philox(0))


@pytest.mark.parametrize("F, q", [(1, 32), (3, 1), (2, 2), (10, 32), (7, 1000)])
def test_array_draws_equal_the_scalar_draw_sequence(F, q):
    # the random builders draw a tree's structure in one call each; they rely
    # on numpy's bounded integers giving the values, and leaving the stream
    # in the state, of one scalar call per value (a range of 1 draws nothing)
    n = 15
    scalar, array = philox(11), philox(11)
    want = [int(scalar.integers(high)) for _ in range(n) for high in (F, q)]
    got = array.integers(np.tile([F, q], n)).tolist()
    assert got == want, "numpy's integers(high array) no longer matches its scalar draws"
    want = [[int(scalar.integers(q)) for _ in range(4)] for _ in range(F)]
    got = array.integers(q, size=(F, 4)).tolist()
    assert got == want, "numpy's integers(q, size) no longer matches its scalar draws"
    assert array.integers(2**40) == scalar.integers(2**40), "the streams diverged"


class TestTotallyRandom:
    def test_structure_is_data_independent(self):
        cs = d.uniform_candidates([(0.0, 1.0), (0.0, 1.0)], 8)
        a = grow_tree_totally_random(philox(3), [0, 1], cs, 3)
        b = grow_tree_totally_random(philox(3), [0, 1], cs, 3)
        assert a.to_dict() == b.to_dict()

    def test_depth_one_shape(self):
        cs = d.uniform_candidates([(0.0, 1.0)], 4)
        tree = grow_tree_totally_random(philox(0), [0], cs, 1)
        payload = tree.to_dict()
        assert len(payload["feature"]) == len(payload["threshold"]) == 1
        assert len(payload["leaf_weights"]) == 2
        assert tree.max_depth == 1 and tree.n_leaves == 2

    @pytest.mark.parametrize("feats", [[3], [0, 4], [0, 1, 2, 3, 4]])
    def test_structure_is_the_scalar_preorder_draws(self, feats):
        cs = d.uniform_candidates([(0.0, 1.0)] * 5, 6)
        tree = grow_tree_totally_random(philox(8), feats, cs, 4)
        draws = philox(8)
        for heap in preorder(4):
            j = feats[int(draws.integers(len(feats)))]
            assert tree.feature[heap] == j
            assert tree.threshold[heap] == cs.per_feature[j][int(draws.integers(6))]

    @pytest.mark.parametrize("depth", [1, 4, 9])
    def test_preorder_is_built_once_per_depth_and_read_only(self, depth):
        order = _preorder(depth)
        assert order is _preorder(depth) and not order.flags.writeable
        assert order.tolist() == preorder(depth)

    def test_respects_feature_subset(self):
        cs = d.uniform_candidates([(0.0, 1.0)] * 5, 4)
        tree = grow_tree_totally_random(philox(1), [2, 4], cs, 4)
        feats = {f for f, _ in structure_of(tree, cs)}
        assert feats <= {2, 4}

    def test_empty_subset_rejected(self):
        cs = d.uniform_candidates([(0.0, 1.0)], 4)
        with pytest.raises(InvalidParameterError):
            grow_tree_totally_random(philox(0), [], cs, 2)

    def test_given_an_aggregator_its_records_descend_to_their_leaves(self):
        ds = d.synthesize(40, 3, seed=2)
        agg = exact_aggregator(ds)
        cs = quantile_set(ds, 4)
        tree = grow_tree_totally_random(philox(5), [0, 2], cs, 3, agg)
        assert tree.to_dict() == grow_tree_totally_random(philox(5), [0, 2], cs, 3).to_dict()
        assert np.array_equal(agg.node - tree.feature.size, tree.route(ds.features))


class TestHistogramTree:
    def test_tiny_example_matches_bruteforce(self):
        ds = d.synthesize(8, 2, 0.0, 0.5, seed=4)
        cs = quantile_set(ds, 3)
        agg = exact_aggregator(ds)
        tree, _, _ = grow_tree(agg, philox(0), HIST, [0, 1], cs, 1, 1.0, 0.0)
        ref = reference_greedy_tree(
            ds.features, ds.labels, cs.per_feature, [0, 1], 1, 1.0, 0.0
        )
        ref_splits, _ = collect_structure(ref)
        assert structure_of(tree, cs) == ref_splits

    def test_fifty_datasets_node_by_node(self):
        rng = np.random.default_rng(0)
        for trial in range(50):
            n = int(rng.integers(8, 65))
            m = int(rng.integers(1, 5))
            Q = int(rng.integers(2, 6))
            depth = int(rng.integers(1, 4))
            ds = d.synthesize(n, m, 0.4, 0.5, seed=1000 + trial)
            cs = quantile_set(ds, Q)
            agg = exact_aggregator(ds)
            tree, leaf_stats, _ = grow_tree(agg, philox(0), HIST, range(m), cs, depth, 1.0, 0.0)
            ref = reference_greedy_tree(
                ds.features, ds.labels, cs.per_feature, range(m), depth, 1.0, 0.0
            )
            ref_splits, ref_weights = collect_structure(ref)
            assert structure_of(tree, cs) == ref_splits, f"trial {trial}"
            ours = [
                -leaf_stats[i][0] / (max(leaf_stats[i][1], 0.0) + 1.0)
                for i in range(tree.n_leaves)
            ]
            assert np.allclose(ours, ref_weights, atol=1e-9), f"trial {trial}"

    def test_prefix_scores_match_raw_sums(self):
        def direct_score(data, left):
            g = 0.5 - data.labels
            h = np.full(data.n, 0.25)
            return d.split_score(g[left].sum(), h[left].sum(), g[~left].sum(), h[~left].sum(), 1.0, 0.0)

        # a hist root, on one feature or three, keeps the first best prefix
        # split scored from direct sums; candidate 4 is the all-left split
        for m, seed in [(1, 9), (1, 10), (3, 9), (3, 11)]:
            ds = d.synthesize(60, m, 0.0, 0.5, seed=seed)
            cs = quantile_set(ds, 5)
            direct = [
                direct_score(ds, np.ones(ds.n, bool) if c == 4 else ds.features[:, j] <= thr)
                for j in range(m)
                for c, thr in enumerate(cs.per_feature[j])
            ]
            agg = exact_aggregator(ds)
            tree, leaves, _ = grow_tree(agg, philox(0), HIST, range(m), cs, 1, 1.0, 0.0)
            assert structure_of(tree, cs) == [divmod(int(np.argmax(direct)), 5)], (m, seed)
            g = 0.5 - ds.labels
            leaf = tree.route(ds.features)
            assert leaves[:, 0] == pytest.approx([g[leaf == 0].sum(), g[leaf == 1].sum()], abs=1e-9)
        # so does the pr builder, over its root's one proposal per feature
        ds3 = d.synthesize(60, 3, 0.0, 0.5, seed=9)
        cs3 = quantile_set(ds3, 5)
        for seed in range(5):
            agg = exact_aggregator(ds3)
            tree, _, _ = grow_tree(agg, philox(seed), PR, range(3), cs3, 1, 1.0, 0.0)
            draws = philox(seed)
            proposed = [cs3.per_feature[j][int(draws.integers(5))] for j in range(3)]
            direct = [direct_score(ds3, ds3.features[:, j] <= thr) for j, thr in enumerate(proposed)]
            best = int(np.argmax(direct))
            assert (tree.feature[0], tree.threshold[0]) == (best, proposed[best]), seed

    def test_gamma_does_not_change_argmax(self):
        ds = d.synthesize(40, 3, 0.0, 0.5, seed=12)
        cs = quantile_set(ds, 4)
        trees = []
        for gamma in (0.0, 0.7):
            agg = exact_aggregator(ds)
            tree, _, _ = grow_tree(agg, philox(0), HIST, range(3), cs, 2, 1.0, gamma)
            trees.append(structure_of(tree, cs))
        assert trees[0] == trees[1]

    def test_tie_breaks_to_lowest_feature_then_candidate(self):
        # duplicated feature columns produce identical scores for j=0 and j=1
        X = np.tile(np.linspace(0.1, 0.9, 16)[:, None], (1, 2))
        y = (X[:, 0] > 0.5).astype(int)
        ds = d.Dataset(X, y, ((0.0, 1.0), (0.0, 1.0)))
        cs = d.uniform_candidates(ds.bounds, 5)
        agg = exact_aggregator(ds)
        tree, _, _ = grow_tree(agg, philox(0), HIST, [0, 1], cs, 1, 1.0, 0.0)
        assert tree.feature[0] == 0

    def test_level_skips_a_split_whose_raw_score_is_nan(self):
        # feature 0's bins hold subnormal Hessian mass: at lam = 0 both of its
        # candidates compute inf - inf, which argmax would take first
        hist = np.array([[[1.0, 1e-311], [1.0, 1e-311]], [[1.0, 0.5], [-1.0, 0.5]]])

        class FixedHistogram:
            def begin_tree(self):
                pass

            def histogram_round(self, nodes, feats, cand_set, category):
                return hist[:, None]

            def apply_splits(self, feature, threshold):
                pass

        cs = d.uniform_candidates([(0.0, 1.0)] * 2, 2)
        tree, _, _ = grow_tree(FixedHistogram(), philox(0), HIST, [0, 1], cs, 1, 0.0, 0.0)
        assert structure_of(tree, cs) == [(1, 0)]

    def test_single_feature_tree_matches_greedy_oracle_noise_off(self):
        ds = d.synthesize(70, 1, 0.3, 0.5, seed=21)
        cs = quantile_set(ds, 6)
        agg = exact_aggregator(ds)
        tree, _, _ = grow_tree(agg, philox(0), HIST, [0], cs, 3, 1.0, 0.0)
        ref = reference_greedy_tree(ds.features, ds.labels, cs.per_feature, [0], 3, 1.0, 0.0)
        assert structure_of(tree, cs) == collect_structure(ref)[0]
        # one root histogram scores every level
        assert d.QueryCounter.from_rounds(agg.rounds).kappa_s == 1

    @given(
        n=st.integers(8, 80),
        m=st.integers(1, 4),
        Q=st.integers(2, 6),
        depth=st.integers(1, 3),
        data=st.data(),
        shards=st.one_of(st.none(), st.integers(1, 7)),
        candidates=st.sampled_from([d.CandidateMethod.UNIFORM, d.CandidateMethod.QUANTILE]),
        features=st.sampled_from(list(d.FeatureMode)),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=80, deadline=None)
    def test_trained_hist_tree_matches_oracle(
        self, n, m, Q, depth, data, shards, candidates, features, seed
    ):
        # T = 1: every (g, h) is (+-0.5, 0.25), so the fixed-point sums are
        # exact; eta = 1 and beta = 1e9 leave the raw leaf weights untouched.
        k = data.draw(st.integers(1, m), label="k")
        ds = d.synthesize(n, m, 0.4, 0.5, seed=seed)
        if shards is None:
            pop = partition(ds, None, ONE_RECORD_PER_CLIENT)
        else:
            pop = partition(ds, shards, EQUAL_SHARDS, seed=seed)
        cfg = d.TrainConfig(
            T=1, d=depth, Q=Q, split_method=d.SplitMethod.HIST, candidate_method=candidates,
            feature_mode=features, k=k, eta=1.0, beta=1e9, seed=seed,
        )
        tree = d.train(cfg, pop).ensemble.trees[0]
        if candidates is d.CandidateMethod.UNIFORM:
            cs = d.uniform_candidates(ds.bounds, Q)
        else:
            cs = quantile_set(ds, Q)
        # tree 0's feature subset is the first draw of the trainer's structure stream
        subset = d.select_features(
            features.value, k, 0, m, philox(np.random.SeedSequence(seed).spawn(2)[0])
        )
        ref = reference_greedy_tree(
            ds.features, ds.labels, cs.per_feature, subset, depth, 1.0, 0.0
        )
        ref_splits, ref_weights = collect_structure(ref)
        # the oracle's last candidate is the all-left split, routed on the upper bound
        want = [
            (j, ds.bounds[j][1] if c == Q - 1 else cs.per_feature[j][c]) for j, c in ref_splits
        ]
        got = [(int(tree.feature[i]), float(tree.threshold[i])) for i in preorder(depth)]
        assert got == want
        assert np.array_equal(tree.leaf_weights, ref_weights)

    def test_single_feature_leaf_stats_match_direct_sums(self):
        ds = d.synthesize(50, 1, 0.0, 0.5, seed=31)
        cs = quantile_set(ds, 4)
        agg = exact_aggregator(ds)
        tree, leaf_stats, _ = grow_tree(agg, philox(0), HIST, [0], cs, 2, 1.0, 0.0)
        leaves = tree.route(ds.features)
        g = 0.5 - ds.labels
        for leaf in range(tree.n_leaves):
            mask = leaves == leaf
            assert leaf_stats[leaf][0] == pytest.approx(g[mask].sum(), abs=1e-9)
            assert leaf_stats[leaf][1] == pytest.approx(0.25 * mask.sum(), abs=1e-9)


# the data-dependent builds: hist and pr, over two features and over one
BUILDS = pytest.mark.parametrize(
    "method, feats",
    [(HIST, [0, 1]), (PR, [0, 1]), (HIST, [0]), (PR, [0])],
    ids=["hist", "pr", "hist-k1", "pr-k1"],
)


@BUILDS
def test_data_dependent_builders_reject_depth_zero(method, feats):
    ds = d.synthesize(20, 2, 0.0, 0.5, seed=3)
    cs = quantile_set(ds, 3)
    with pytest.raises(InvalidParameterError, match="depth"):
        grow_tree(exact_aggregator(ds), philox(0), method, feats, cs, 0, 1.0, 0.0)


@BUILDS
def test_grown_tree_leaves_every_record_at_its_leaf(method, feats):
    # noisy sums over shards, so that the splits are not the exact-data ones
    ds = d.synthesize(150, 2, 0.3, 0.5, seed=8)
    pop = partition(ds, 7, EQUAL_SHARDS, seed=8)
    agg = FederatedAggregator(pop, noise_std=2.0, noise_seed=5)
    agg.recompute_gradients(d.UpdateMode.NEWTON)
    cs = d.uniform_candidates(ds.bounds, 6)
    for seed in range(3):
        tree, _, _ = grow_tree(agg, philox(seed), method, feats, cs, 3, 1.0, 0.0)
        assert np.array_equal(agg.node - (2**3 - 1), tree.route(pop.features))


class TestPartiallyRandom:
    def test_leaf_stats_consistent_with_routing(self):
        ds = d.synthesize(80, 3, 0.0, 0.5, seed=17)
        cs = quantile_set(ds, 5)
        agg = exact_aggregator(ds)
        tree, leaf_stats, _ = grow_tree(agg, philox(2), PR, range(3), cs, 2, 1.0, 0.0)
        leaves = tree.route(ds.features)
        g = 0.5 - ds.labels
        h = np.full(ds.n, 0.25)
        for leaf in range(tree.n_leaves):
            mask = leaves == leaf
            assert leaf_stats[leaf][0] == pytest.approx(g[mask].sum(), abs=1e-8)
            assert leaf_stats[leaf][1] == pytest.approx(h[mask].sum(), abs=1e-8)

    def test_query_count_per_level(self):
        ds = d.synthesize(30, 4, 0.0, 0.5, seed=2)
        cs = quantile_set(ds, 3)
        agg = exact_aggregator(ds)
        grow_tree(agg, philox(0), PR, range(4), cs, 3, 1.0, 0.0)
        assert d.QueryCounter.from_rounds(agg.rounds).kappa_s == 4 * 3

    def test_single_feature_tree_splits_at_its_preorder_draws(self):
        ds = d.synthesize(80, 2, 0.0, 0.5, seed=19)
        Q, depth = 5, 3
        cs = quantile_set(ds, Q)
        agg = exact_aggregator(ds)
        tree, leaf_stats, _ = grow_tree(agg, philox(4), PR, [1], cs, depth, 1.0, 0.0)
        # every node's candidate is drawn in pre-order before the first level;
        # it splits the root histogram's bins, so the last one routes on the
        # upper bound
        draws = philox(4)
        drawn = {heap: int(draws.integers(Q)) for heap in preorder(depth)}
        assert Q - 1 in drawn.values()
        routing = [*cs.per_feature[1][:-1], ds.bounds[1][1]]
        assert tree.feature.tolist() == [1] * (2**depth - 1)
        assert tree.threshold.tolist() == [routing[drawn[i]] for i in range(2**depth - 1)]
        leaves = tree.route(ds.features)
        g = 0.5 - ds.labels
        for leaf in range(tree.n_leaves):
            mask = leaves == leaf
            assert leaf_stats[leaf][0] == pytest.approx(g[mask].sum(), abs=1e-9)
            assert leaf_stats[leaf][1] == pytest.approx(0.25 * mask.sum(), abs=1e-9)
        assert [(r.kind, r.queries) for r in agg.rounds] == [("s", 1)]


class TestTreeSerialization:
    def test_json_round_trip(self):
        ds = d.synthesize(30, 2, 0.0, 0.5, seed=1)
        cs = quantile_set(ds, 4)
        tree = grow_tree_totally_random(philox(7), [0, 1], cs, 3)
        tree.leaf_weights = np.linspace(-1, 1, tree.n_leaves)
        back = d.Tree.from_dict(tree.to_dict())
        assert back.to_dict() == tree.to_dict()
        X = ds.features
        assert np.array_equal(tree.route(X), back.route(X))
        assert np.allclose(back.leaf_weights, tree.leaf_weights)

    # thresholds and rows share one grid, so many rows sit exactly on a threshold
    GRID = np.arange(11) / 10

    def random_tree_and_rows(self, depth, m, seed):
        """A random complete tree and 40 rows plus one row per internal node
        that sits on its threshold in every feature, as (C-ordered X, its
        feature-major copy, column-sliced view of a wider matrix), all equal
        in value."""
        rng = philox(seed)
        n_internal = 2 ** depth - 1
        tree = d.Tree(
            rng.integers(0, m, n_internal),
            rng.choice(self.GRID, n_internal),
            rng.normal(0, 1, n_internal + 1),
        )
        on_threshold = np.repeat(tree.threshold[:, None], 2 * m, axis=1)
        wide = np.vstack([rng.choice(self.GRID, size=(40, 2 * m)), on_threshold])
        X = np.ascontiguousarray(wide[:, ::2])
        return tree, (X, np.asfortranarray(X), wide[:, ::2])

    # node ids are one byte up to d = 7 and two at d = 8 and 9
    @given(depth=st.integers(0, 9), m=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_random_complete_trees_round_trip_and_route_like_oracle(self, depth, m, seed):
        tree, layouts = self.random_tree_and_rows(depth, m, seed)
        payload = json.loads(json.dumps(tree.to_dict()))
        back = d.Tree.from_dict(payload)
        assert back.to_dict() == payload and back.max_depth == depth
        oracle = [route_tree_dict(payload, x) for x in layouts[0]]
        assert tree.route(layouts[0]).dtype == (np.uint8 if depth < 8 else np.uint16)
        for X in layouts:
            assert tree.leaf_weights[tree.route(X)].tolist() == oracle
            assert back.leaf_weights[back.route(X)].tolist() == oracle

    @given(
        lengths=st.integers(0, 6).flatmap(
            lambda depth: st.tuples(
                *(st.integers(max(n - 2, 0), n + 2) for n in (2**depth - 1,) * 2 + (2**depth,))
            )
        )
        | st.tuples(*[st.integers(0, 130)] * 3)
    )
    @settings(max_examples=200, deadline=None)
    def test_only_complete_lengths_load(self, lengths):
        n_feature, n_threshold, n_weights = lengths
        payload = {
            "feature": [0] * n_feature,
            "threshold": [0.5] * n_threshold,
            "leaf_weights": [1.0] * n_weights,
        }
        if lengths in [(2**depth - 1, 2**depth - 1, 2**depth) for depth in range(8)]:
            assert d.Tree.from_dict(payload).to_dict() == payload
        else:
            with pytest.raises(InvalidParameterError, match="not complete"):
                d.Tree.from_dict(payload)

    @given(depth=st.integers(1, 5), m=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_client_routing_and_prediction_agree_across_layouts(self, depth, m, seed):
        tree, layouts = self.random_tree_and_rows(depth, m, seed)
        X = layouts[0]
        bounds = ((0.0, 1.0),) * m
        # a population built from C-ordered rows; clients descend level by level
        pop = ClientPopulation(X, np.zeros(len(X)), bounds, client_sizes=np.ones(len(X), dtype=np.int64))
        assert pop.features.flags.f_contiguous
        agg = FederatedAggregator(pop)
        agg.begin_tree()
        for _ in range(depth):
            agg.apply_splits(tree.feature, tree.threshold)
        assert np.array_equal(agg.node - tree.feature.size, tree.route(X))
        ensemble = d.Ensemble([tree], d.UpdateMode.NEWTON, 0.3, 1, bounds)
        want = d.predict(ensemble, X)
        for other in layouts[1:]:
            assert np.array_equal(d.predict(ensemble, other), want)

    def test_routing_splits_on_threshold(self):
        tree = d.Tree(np.array([0]), np.array([0.5]), np.zeros(2))
        out = tree.route(np.array([[0.5], [0.51], [np.nan]]))
        assert list(out) == [0, 1, 1]

    def test_depth_eight_client_descent_feeds_a_leaf_round(self):
        # heap ids reach 510 at d = 8, past one byte
        tree, (X, _, _) = self.random_tree_and_rows(8, 3, seed=8)
        pop = ClientPopulation(
            X, np.zeros(len(X)), ((0.0, 1.0),) * 3, client_sizes=np.ones(len(X), dtype=np.int64)
        )
        agg = FederatedAggregator(pop)
        agg.recompute_gradients(d.UpdateMode.NEWTON)
        agg.begin_tree()
        for _ in range(8):
            agg.apply_splits(tree.feature, tree.threshold)
        assert agg.node.dtype == np.uint16 and agg.node.max() > 255
        leaves = agg.node - tree.feature.size
        assert np.array_equal(leaves, tree.route(X))
        sums = agg.leaf_round([leaves], tree.n_leaves)
        assert np.array_equal(sums[0, :, 1], 0.25 * np.bincount(leaves, minlength=256))
