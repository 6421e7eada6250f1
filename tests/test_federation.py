import dataclasses
import itertools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import dpgbdt as d
import dpgbdt.federation as federation
from dpgbdt.accounting import InvalidParameterError
from dpgbdt.boosting import train
from dpgbdt.data import philox
from dpgbdt.federation import (
    EQUAL_SHARDS,
    ONE_RECORD_PER_CLIENT,
    ClientPopulation,
    CodecOverflowError,
    FederatedAggregator,
    FixedPointCodec,
    comm_accounting,
    partition,
)
from dpgbdt.harness import PRESET_NAMES, baseline_preset
from dpgbdt.trees import grow_tree_totally_random

from oracles import closed_right_bin, ring_cell_sums, stacked_update_scores


def make_pop(n=32, m=2, seed=0, policy=ONE_RECORD_PER_CLIENT, n_clients=None):
    ds = d.synthesize(n, m, 0.0, 0.5, seed=seed)
    return partition(ds, n_clients, policy, seed=seed)


def released(rounds):
    """Coordinates the rounds released: a (G, H) pair per cell, node and query."""
    return sum(2 * r.queries * r.nodes * r.cells for r in rounds)


def aggregator(pop, g, h, codec=None, **kwargs):
    agg = FederatedAggregator(pop, codec=codec, **kwargs)
    agg.gh = np.stack([g, h])
    return agg


def root_histogram(pop, thresholds, g, h, codec=None):
    """(G, H): the root node's histogram of feature 0."""
    thr = np.asarray(thresholds, dtype=float)
    cs = d.SplitCandidateSet((thr,) * pop.m, pop.bounds)
    return aggregator(pop, g, h, codec).histogram_round([0], [0], cs, "s")[0, 0].T


class TestCodec:
    def test_encode_decode_roundtrip(self):
        codec = FixedPointCodec()
        vals = np.array([1.0, -2.5, 0.0, 1234.0625])
        assert np.allclose(codec.decode(codec.encode(vals)), vals)

    def test_quantisation_error_bounded(self):
        codec = FixedPointCodec()
        rng = philox(3)
        vals = rng.normal(0, 5, 1000)
        err = np.abs(codec.decode(codec.encode(vals)) - vals)
        assert err.max() <= 1 / (2 * codec.scale) + 1e-15

    def test_small_ring(self):
        # at 48 fractional bits the exact 2^53 range holds magnitudes below 2^5 only
        codec = FixedPointCodec(precision_bits=48)
        vals = np.array([3.5, -7.25])
        assert np.allclose(codec.decode(codec.encode(vals)), vals)
        with pytest.raises(CodecOverflowError):
            codec.encode_pairs(np.array([[100.0, 0.0], [100.0, 0.0]]))

    def test_capacity_check(self):
        codec = FixedPointCodec(precision_bits=48)
        with pytest.raises(CodecOverflowError):
            codec.check_capacity(1000, 10.0)
        # float64 holds every integer below 2^53 = 32 * 2^48 exactly
        codec.check_capacity(1, 31.0)
        with pytest.raises(CodecOverflowError):
            codec.check_capacity(1, 32.0)

    @given(
        data=st.data(),
        precision=st.sampled_from([16, 40]),
        rows=st.integers(0, 40),
        n_cells=st.integers(1, 6),
    )
    @settings(max_examples=200, deadline=None)
    def test_ring_sum_matches_integer_oracle(self, data, precision, rows, n_cells):
        # few cells for many rows: cells repeat, and some stay unused; 40
        # rows at the bound stay inside 2^53
        bound = 1e6 if precision == 16 else 1e2
        cells = data.draw(st.lists(st.integers(0, n_cells - 1), min_size=rows, max_size=rows))
        value = st.floats(-bound, bound, allow_nan=False)
        values = data.draw(st.lists(value, min_size=rows * 2, max_size=rows * 2))
        pairs = np.array(values, dtype=float).reshape(rows, 2)
        codec = FixedPointCodec(precision_bits=precision)
        out = codec.ring_sum(codec.encode_pairs(pairs), np.array(cells, dtype=np.int64), n_cells)
        assert out.shape == (n_cells, 2)
        assert out.tolist() == ring_cell_sums(pairs.tolist(), cells, n_cells, 2, precision)

    @pytest.mark.parametrize("precision", [4, 16, 40])
    def test_ring_sum_is_exact_at_the_capacity_edge(self, precision):
        # the largest magnitude the capacity check admits for 4 rows encodes
        # to 2^51 - 2, so one cell sums to 2^53 - 9 in magnitude: float64
        # still holds every integer there, and the odd lowest bit survives
        codec = FixedPointCodec(precision_bits=precision)
        unit = 1 / codec.scale
        top = (2**51 - 2) * unit
        pairs = np.array([[top, -top]] * 3 + [[top - unit, unit - top]])
        out = codec.ring_sum(codec.encode_pairs(pairs), np.zeros(4, dtype=np.int64), 2)
        edge = (2**53 - 9) * unit
        assert out.tolist() == [[edge, -edge], [0.0, 0.0]]
        assert out.tolist() == ring_cell_sums(pairs.tolist(), [0] * 4, 2, 2, precision)
        # one unit more encodes to 2^51 - 1: four such rows need 2^53
        with pytest.raises(CodecOverflowError):
            codec.encode_pairs(np.full((4, 2), top + unit))

    @given(
        data=st.data(),
        precision=st.sampled_from([16, 40]),
        block_rows=st.lists(st.integers(0, 6), min_size=1, max_size=4),
        width=st.integers(1, 4),
    )
    @settings(max_examples=100, deadline=None)
    def test_ring_reduce_matches_integer_oracle(self, data, precision, block_rows, width):
        # 24 rows at the bound stay inside 2^53
        bound = 1e6 if precision == 16 else 1e2
        value = st.floats(-bound, bound, allow_nan=False)
        blocks = [
            np.array(data.draw(st.lists(value, min_size=r * width, max_size=r * width)))
            .reshape(r, 1, width)
            for r in block_rows
        ]
        codec = FixedPointCodec(precision_bits=precision)
        rows = np.concatenate(blocks).reshape(-1, width)
        out = codec.ring_reduce(iter(blocks), max(len(rows), 1))
        assert out.shape == (1, width)
        expected = ring_cell_sums(rows.tolist(), [0] * len(rows), 1, width, precision)
        assert out.tolist() == expected

    def test_ring_reduce_checks_capacity(self):
        # the first block fits (200 * (2^40 + 1) < 2^53); the second does not
        codec = FixedPointCodec(precision_bits=40)
        blocks = [np.full((100, 3), 1.0), np.full((100, 3), -1000.0)]
        codec.ring_reduce(iter(blocks[:1]), 200)
        with pytest.raises(CodecOverflowError):
            codec.ring_reduce(iter(blocks), 200)

    def test_bad_params(self):
        for precision in (0, 53, 64):
            with pytest.raises(ValueError):
                FixedPointCodec(precision_bits=precision)
        assert FixedPointCodec(precision_bits=52).scale == 2**52


def one_cell(codec, pairs):
    """Sum of every encoded (g, h) row of ``pairs`` in a single cell."""
    return codec.ring_sum(codec.encode_pairs(pairs), np.zeros(len(pairs), dtype=np.int64), 1)[0]


class TestSecureSum:
    """The two sums a release runs (``ring_sum`` of encoded records, and
    ``ring_reduce`` of locally noised shards) and the noise of a release."""

    def test_plain_example(self):
        codec = FixedPointCodec()
        pairs = np.array([[1.0, 0.5], [2.0, 0.5], [3.0, 0.5]])
        assert np.abs(one_cell(codec, pairs) - [6.0, 1.5]).max() <= 3 / 2**17
        assert abs(codec.ring_reduce([pairs[:, :1]], 3)[0] - 6.0) <= 3 / 2**17

    def test_exactness_bound_many_vectors(self):
        rng = philox(1)
        codec = FixedPointCodec()
        for _ in range(1000):
            c = int(rng.integers(1, 50))
            dim = int(rng.integers(1, 8))
            contribs = rng.normal(0, 10, (c, dim))
            pairs = rng.normal(0, 10, (c, 2))
            bound = c / (2 * codec.scale) + 1e-12
            assert np.abs(one_cell(codec, pairs) - pairs.sum(axis=0)).max() <= bound
            reduced = codec.ring_reduce(np.array_split(contribs, 2), c)
            assert np.abs(reduced - contribs.sum(axis=0)).max() <= bound

    @given(p=st.integers(4, 24))
    @settings(max_examples=20)
    def test_exactness_across_scales(self, p):
        codec = FixedPointCodec(precision_bits=p)
        rng = philox(p)
        contribs = rng.normal(0, 3, (20, 5))
        pairs = contribs[:, :2]
        bound = 20 / (2 * codec.scale) + 1e-12
        assert np.abs(one_cell(codec, pairs) - pairs.sum(axis=0)).max() <= bound
        assert np.abs(codec.ring_reduce([contribs], 20) - contribs.sum(axis=0)).max() <= bound

    def test_noise_distribution(self):
        std = 3.0
        pop = make_pop(5, 1)
        agg = aggregator(pop, np.zeros(pop.n), np.zeros(pop.n), noise_std=std, noise_seed=42)
        leaves = np.arange(pop.n, dtype=np.int64)
        draws = np.concatenate([agg.leaf_round([leaves], 5).ravel() for _ in range(10_000)])
        assert draws.size == 100_000
        assert abs(draws.std() / std - 1.0) < 0.02
        ks = stats.kstest(draws, "norm", args=(0.0, std))
        assert ks.pvalue > 0.01

    def test_empty_contributions(self):
        codec = FixedPointCodec()
        empty = codec.ring_sum(codec.encode_pairs(np.zeros((0, 2))), np.zeros(0, dtype=np.int64), 4)
        assert np.array_equal(empty, np.zeros((4, 2)))
        # leaves 1..3 hold no record: exact zeros without noise, pure noise with it
        pop = make_pop(6, 1)
        leaves = [np.zeros(pop.n, dtype=np.int64)]
        g, h = np.ones(pop.n), np.ones(pop.n)
        plain = aggregator(pop, g, h).leaf_round(leaves, 4)[0]
        assert np.array_equal(plain[1:], np.zeros((3, 2)))
        noisy = aggregator(pop, g, h, noise_std=1.0, noise_seed=0)
        assert np.all(noisy.leaf_round(leaves, 4)[0][1:] != 0.0)

    def test_wraparound_detected(self):
        # 200 * 100 * 2^48 passes 2^53, past which float64 drops integers
        codec = FixedPointCodec(precision_bits=48)
        with pytest.raises(CodecOverflowError):
            one_cell(codec, np.full((200, 2), 100.0))
        with pytest.raises(CodecOverflowError):
            codec.ring_reduce([np.full((200, 1), 100.0)], 200)


class TestPartition:
    def test_one_record_per_client(self):
        pop = make_pop(100, 2)
        assert pop.n_clients == 100
        assert np.all(pop.client_sizes == 1)

    def test_equal_shards(self):
        pop = make_pop(100, 2, policy=EQUAL_SHARDS, n_clients=4)
        assert list(pop.client_sizes) == [25, 25, 25, 25]

    def test_remainder_rule(self):
        pop = make_pop(10, 2, policy=EQUAL_SHARDS, n_clients=3)
        assert list(pop.client_sizes) == [4, 3, 3]

    def test_disjoint_cover(self):
        ds = d.synthesize(30, 3, seed=5)
        pop = partition(ds, 7, EQUAL_SHARDS, seed=2)
        starts = pop.client_starts
        stacked = np.vstack([pop.features[starts[c] : starts[c + 1]] for c in range(pop.n_clients)])
        assert np.array_equal(
            stacked[np.lexsort(stacked.T)], ds.features[np.lexsort(ds.features.T)]
        )

    def test_deterministic(self):
        ds = d.synthesize(30, 3, seed=5)
        a = partition(ds, 7, EQUAL_SHARDS, seed=2)
        b = partition(ds, 7, EQUAL_SHARDS, seed=2)
        assert np.array_equal(a.features, b.features)

    def test_impossible(self):
        ds = d.synthesize(10, 2, seed=0)
        with pytest.raises(ValueError):
            partition(ds, 20, EQUAL_SHARDS)
        with pytest.raises(ValueError):
            partition(ds, 3, ONE_RECORD_PER_CLIENT)

    def test_one_record_per_client_shares_the_dataset(self):
        ds = d.synthesize(30, 3, seed=5)
        pop = partition(ds, None, ONE_RECORD_PER_CLIENT)
        assert np.shares_memory(pop.features, ds.features)
        assert np.shares_memory(pop.labels, ds.labels)

    def test_population_is_a_dataset_with_client_sizes(self):
        assert issubclass(ClientPopulation, d.Dataset)
        names = [f.name for f in dataclasses.fields(ClientPopulation)]
        assert names == [f.name for f in dataclasses.fields(d.Dataset)] + ["client_sizes"]

    @pytest.mark.parametrize(
        "value, label, error",
        [
            (np.nan, 0, "not finite"),
            (5.0, 0, "outside declared bounds"),
            (0.5, 2, "labels must all be 0 or 1"),
        ],
        ids=["nan", "out-of-bounds", "label-2"],
    )
    def test_direct_population_runs_the_dataset_checks(self, value, label, error):
        X = np.full((3, 2), 0.5)
        X[1, 1] = value
        with pytest.raises(ValueError, match=error):
            ClientPopulation(
                X, np.array([0, 1, label]), ((0.0, 1.0),) * 2, client_sizes=np.ones(3, dtype=np.int64)
            )


class TestHistogramQuery:
    def test_binning_example(self):
        # 4 records with g=1, h=1, all in bin 2 of Q=3
        X = np.full((4, 1), 0.4)
        ds = d.Dataset(X, np.ones(4, dtype=int), ((0.0, 1.0),))
        pop = partition(ds, None, ONE_RECORD_PER_CLIENT)
        G, H = root_histogram(pop, [0.25, 0.5, 0.75], g=np.ones(4), h=np.ones(4))
        assert np.allclose(G, [0, 4, 0])
        assert np.allclose(H, [0, 4, 0])

    def test_boundary_value_falls_left(self):
        X = np.array([[0.5]])
        ds = d.Dataset(X, np.array([1]), ((0.0, 1.0),))
        pop = partition(ds, None, ONE_RECORD_PER_CLIENT)
        G, _ = root_histogram(pop, [0.25, 0.5, 0.75], g=np.ones(1), h=np.ones(1))
        assert np.allclose(G, [0, 1, 0])

    def test_bin_sums_equal_global_sums(self):
        rng = philox(17)
        codec = FixedPointCodec(precision_bits=24)
        for trial in range(100):
            n = int(rng.integers(4, 80))
            ds = d.synthesize(n, 2, 0.3, 0.5, seed=trial)
            pop = partition(ds, None, ONE_RECORD_PER_CLIENT)
            g = rng.normal(0, 1, n)
            h = rng.random(n)
            thr = np.sort(rng.random(5))
            G, H = root_histogram(pop, thr, g=g, h=h, codec=codec)
            assert G.sum() == pytest.approx(g.sum(), abs=n / codec.scale)
            assert H.sum() == pytest.approx(h.sum(), abs=n / codec.scale)

    def test_each_record_lands_in_exactly_one_bin(self):
        # counting h = 1 per record: total histogram mass equals n
        n = 64
        ds = d.synthesize(n, 1, 0.0, 0.5, seed=3)
        pop = partition(ds, None, ONE_RECORD_PER_CLIENT)
        thr = np.linspace(0.1, 0.9, 6)
        G, _ = root_histogram(pop, thr, g=np.ones(n), h=np.ones(n))
        assert G.sum() == pytest.approx(n, abs=1e-6)

    @pytest.mark.parametrize("nodes", [[3, 4, 5, 6], [0], [1], [2, 3]])
    def test_round_missing_an_occupied_node_is_refused_unmetered(self, nodes):
        # after one level the records sit at nodes 1 and 2; a round over
        # other nodes would pool them into the wrong cells or none at all
        pop = make_pop(40, 2)
        agg = FederatedAggregator(pop)
        agg.recompute_gradients(d.UpdateMode.NEWTON)
        agg.begin_tree()
        agg.apply_splits(np.array([0]), np.array([0.5]))
        assert set(agg.node.tolist()) == {1, 2}
        cs = d.uniform_candidates(pop.bounds, 4)
        # "not distinct nodes of level 1" or "do not cover ... at level 1"
        with pytest.raises(InvalidParameterError, match="level 1"):
            agg.histogram_round(nodes, [0], cs, "s")
        with pytest.raises(InvalidParameterError, match="level 1"):
            agg.split_pair_round(nodes, {0: np.full(len(nodes), 0.5)})
        assert agg.rounds == [] and released(agg.rounds) == 0
        # the level's nodes are released
        assert agg.histogram_round([1, 2], [0], cs, "s")[0, :, :, 1].sum() == 40 * 0.25
        assert agg.split_pair_round([1, 2], {0: np.full(2, 0.5)}).shape == (1, 2, 4)
        assert agg.rounds == [d.Round("s", 1, 2, 4), d.Round("s", 1, 2, 2)]


class TestLeafQuery:
    def test_two_leaves(self):
        ds = d.synthesize(6, 1, 0.0, 0.5, seed=1)
        pop = partition(ds, None, ONE_RECORD_PER_CLIENT)
        leaf = np.array([0, 0, 0, 0, 1, 1])
        g = np.arange(6.0)
        h = np.ones(6)
        agg = aggregator(pop, g, h, FixedPointCodec(precision_bits=24))
        out = agg.leaf_round([leaf], 2)[0]
        assert out[0, 0] == pytest.approx(0 + 1 + 2 + 3, abs=1e-4)
        assert out[1, 0] == pytest.approx(4 + 5, abs=1e-4)
        assert out[0, 1] == pytest.approx(4, abs=1e-4)

    def test_empty_leaf_is_pure_noise(self):
        ds = d.synthesize(4, 1, 0.0, 0.5, seed=1)
        pop = partition(ds, None, ONE_RECORD_PER_CLIENT)
        agg = aggregator(pop, np.ones(4), np.ones(4), noise_std=1.0, noise_seed=5)
        out = agg.leaf_round([np.zeros(4, dtype=np.int64)], 2)[0]
        assert out[1, 0] != 0.0 and abs(out[1, 0]) < 10.0


    @pytest.mark.parametrize("shards", [None, 5])
    def test_every_integer_leaf_dtype_releases_the_same_sums(self, shards):
        policy = ONE_RECORD_PER_CLIENT if shards is None else EQUAL_SHARDS
        pop = make_pop(40, 1, seed=2, policy=policy, n_clients=shards)
        rng = philox(3)
        g, h, leaf = rng.normal(0, 1, pop.n), rng.random(pop.n), rng.integers(0, 8, pop.n)
        agg = aggregator(pop, g, h)
        want = agg.leaf_round([leaf], 8)
        for dtype in (np.uint8, np.uint16, np.uint64, np.int32):
            assert np.array_equal(agg.leaf_round([leaf.astype(dtype)], 8), want), dtype


class TestLdp:
    def test_sqrt_n_noise_growth(self):
        n = 400
        ds = d.Dataset(np.full((n, 1), 0.5), np.zeros(n, dtype=int), ((0.0, 1.0),))
        pop = partition(ds, None, ONE_RECORD_PER_CLIENT)
        std = 2.0
        agg = FederatedAggregator(pop, noise_std=std, noise_seed=9, local_noise=True)
        agg.gh = np.zeros((2, n))
        sums = np.concatenate(
            [agg.leaf_round([np.zeros(n, dtype=np.int64)], 1)[0].ravel() for _ in range(2000)]
        )
        target = std * math.sqrt(n)
        assert abs(sums.std() / target - 1.0) < 0.03

    def test_zero_local_noise_matches_secure_path(self):
        n = 16
        ds = d.synthesize(n, 1, 0.0, 0.5, seed=2)
        pop = partition(ds, None, ONE_RECORD_PER_CLIENT)
        g = np.arange(n, dtype=float)
        h = np.ones(n)
        local = FederatedAggregator(pop, local_noise=True)
        central = FederatedAggregator(pop)
        local.gh = central.gh = np.stack([g, h])
        a = local.leaf_round([np.zeros(n, dtype=np.int64)], 1)[0]
        b = central.leaf_round([np.zeros(n, dtype=np.int64)], 1)[0]
        assert np.allclose(a, b)


def one_level(agg):
    """``agg`` once its records have descended one level, to nodes 1 and 2."""
    agg.begin_tree()
    agg.apply_splits(np.array([0]), np.array([0.5]))
    return agg


def grid_population(sizes, m, rng):
    """Clients of the given shard sizes over features on a 1/20 grid, so
    that records land exactly on thresholds drawn from the same grid."""
    n = int(sum(sizes))
    X = rng.integers(0, 21, size=(n, m)) / 20
    ds = d.Dataset(X, rng.integers(0, 2, n), ((0.0, 1.0),) * m)
    return ClientPopulation(ds.features, ds.labels, ds.bounds, client_sizes=np.asarray(sizes))


@pytest.fixture(scope="module")
def many_shards():
    """4,999 shards of 5,000 records: a FEVERLESS level-3 round at Q = 32
    releases 256 cells, so a dense (client, cell) grid would hold 1.3M."""
    return partition(d.synthesize(5000, 3, 0.0, 0.5, seed=3), 4999, EQUAL_SHARDS, seed=0)


class TestClientDataPlane:
    @given(
        sizes=st.lists(st.integers(1, 6), min_size=1, max_size=12),
        shards=st.integers(1, 12),
        Q=st.integers(2, 9),
        precision=st.sampled_from([8, 40]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_release_is_the_same_for_every_partition(self, sizes, shards, Q, precision, seed):
        # the same records under one-record clients, equal shards, random
        # client sizes, and in another order under other sizes: noise-free
        # releases are bit-identical, and equal the integer oracle's sums
        rng = philox(seed)
        n, m = int(sum(sizes)), 2
        X = rng.integers(0, 21, size=(n, m)) / 20
        labels = rng.integers(0, 2, n)
        g, h = rng.normal(0, 1, n), rng.random(n)
        # some of the 8 nodes of level 3, heap ids 7 to 14
        nodes = sorted(7 + int(v) for v in rng.choice(8, size=int(rng.integers(1, 5)), replace=False))
        node_of_record = rng.choice(nodes, size=n)
        grid = np.arange(1, 20) / 20
        cs = d.SplitCandidateSet(
            tuple(np.sort(rng.choice(grid, Q, replace=False)) for _ in range(m)), ((0.0, 1.0),) * m
        )
        proposals = {j: np.array([rng.choice(grid) for _ in nodes]) for j in range(m)}
        leaf = rng.integers(0, 8, n)
        same_order = np.arange(n)
        equal = [part.size for part in np.array_split(same_order, min(shards, n))]
        partitions = {
            "one-record": (same_order, np.ones(n, dtype=np.int64)),
            "equal shards": (same_order, equal),
            "random sizes": (same_order, sizes),
            "shuffled": (rng.permutation(n), sizes[::-1]),
        }
        codec = FixedPointCodec(precision_bits=precision)
        releases = {}
        for name, (order, client_sizes) in partitions.items():
            pop = ClientPopulation(
                X[order], labels[order], ((0.0, 1.0),) * m, client_sizes=np.asarray(client_sizes)
            )
            agg = aggregator(pop, g[order], h[order], codec)
            agg.node, agg.level = node_of_record[order], 3
            releases[name] = [
                agg.histogram_round(nodes, range(m), cs, "s"),
                agg.split_pair_round(nodes, proposals),
                agg.leaf_round([leaf[order]], 8),
            ]
        want = releases.pop("one-record")
        for name, got in releases.items():
            assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want)), name

        rows = np.stack([g, h], axis=1).tolist()
        pos = [nodes.index(nid) for nid in node_of_record]
        hist, pairs, leaves = want
        for j in range(m):
            cells = [p * Q + closed_right_bin(x, cs.per_feature[j]) for p, x in zip(pos, X[:, j])]
            assert hist[j].reshape(-1, 2).tolist() == ring_cell_sums(
                rows, cells, len(nodes) * Q, 2, precision
            )
            cells = [2 * p + int(x > proposals[j][p]) for p, x in zip(pos, X[:, j])]
            assert pairs[j].reshape(-1, 2).tolist() == ring_cell_sums(
                rows, cells, len(nodes) * 2, 2, precision
            )
        assert leaves[0].tolist() == ring_cell_sums(rows, leaf.tolist(), 8, 2, precision)

    @pytest.mark.parametrize("n_clients", [None, 6], ids=["one-record", "6-shards"])
    def test_encode_runs_once_per_gradient_barrier(self, n_clients, monkeypatch):
        encoded = []
        original = FixedPointCodec.encode

        def recording(codec, values):
            encoded.append(values)
            return original(codec, values)

        monkeypatch.setattr(FixedPointCodec, "encode", recording)
        policy = ONE_RECORD_PER_CLIENT if n_clients is None else EQUAL_SHARDS
        pop = make_pop(60, 2, policy=policy, n_clients=n_clients)
        agg = FederatedAggregator(pop)
        cs = d.uniform_candidates(pop.bounds, 4)
        for mode in d.UpdateMode:  # the initial gradients, then each recomputed pair
            fresh = FederatedAggregator(pop)
            fresh.gh = agg.gh
            want = fresh.histogram_round([0], [0, 1], cs, "s")
            encoded.clear()
            assert np.array_equal(agg.histogram_round([0], [0, 1], cs, "s"), want)
            agg.split_pair_round([0], {0: [0.5], 1: [0.3]})
            agg.leaf_round([np.zeros(pop.n, dtype=np.int64)] * 3, 2)
            assert len(encoded) == 1 and np.shares_memory(encoded[0], agg.gh)
            agg.recompute_gradients(mode)

    @pytest.mark.parametrize("depth", [4, 9])  # uint8 and uint16 leaf ids
    @pytest.mark.parametrize("plain", [True, False])
    def test_score_update_at_narrow_leaf_ids_equals_int64_indexing(self, depth, plain):
        pop = make_pop(1500, 2, seed=3)
        cs = d.uniform_candidates(pop.bounds, 16)
        rng = philox(7)
        trees = []
        for seed in range(3):
            tree = grow_tree_totally_random(philox(seed), [0, 1], cs, depth)
            tree.leaf_weights = rng.normal(0.0, 1.0, tree.n_leaves)
            trees.append(tree)
        assigns = [tree.route(pop.features) for tree in trees]
        assert all(a.dtype == np.min_scalar_type(2**depth - 1) for a in assigns)
        raw = rng.normal(0.0, 1.0, pop.n)
        agg = FederatedAggregator(pop)
        agg.raw_scores = raw.copy()
        agg.apply_score_update(list(zip(trees, assigns)), 0.3, plain)
        W = [t.leaf_weights[a.astype(np.int64)] for t, a in zip(trees, assigns)]
        assert np.array_equal(agg.raw_scores, stacked_update_scores(raw, W, 0.3, plain))

    @pytest.mark.parametrize("Q, dtype", [(32, np.uint8), (300, np.uint16)])
    def test_bin_matrix_is_written_narrow(self, Q, dtype):
        pop = make_pop(4000, 10, seed=4)
        cs = d.uniform_candidates(pop.bounds, Q)
        agg = FederatedAggregator(pop)
        tracemalloc.start()
        try:
            bins = agg._binned(cs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        want = [
            np.minimum(np.searchsorted(thr, x, "left"), Q - 1)
            for thr, x in zip(cs.table, pop.features.T)
        ]
        assert bins.dtype == dtype and np.array_equal(bins, want)
        # the matrix plus one column's working set (about 20 bytes a record);
        # stacking intp columns first would hold 16 m bytes a record
        assert peak < bins.nbytes + 24 * pop.n

    def test_gradient_barrier_reads_labels_cast_once(self):
        pop = make_pop(50, 2, seed=5)
        agg = FederatedAggregator(pop)
        assert agg.labels.dtype == float and np.array_equal(agg.labels, pop.labels)
        agg.raw_scores = philox(6).normal(0.0, 2.0, pop.n)
        for mode in d.UpdateMode:
            agg.recompute_gradients(mode)
            assert np.array_equal(agg.gh, d.mode_gradients(pop.labels, agg.raw_scores, mode))
            assert agg.gh.T.flags.c_contiguous

    def test_local_noise_draws_once_per_populated_pair(self):
        rng = philox(4)
        pop = grid_population([5, 1, 3, 7, 2], 2, rng)
        agg = aggregator(
            pop,
            rng.normal(0, 1, pop.n),
            rng.random(pop.n),
            noise_std=1.0,
            noise_seed=2,
            local_noise=True,
        )
        cs = d.uniform_candidates(pop.bounds, 6)
        agg.histogram_round([0], [0], cs, "s")
        bins = [closed_right_bin(x, cs.per_feature[0]) for x in pop.features[:, 0]]
        populated = set(zip(pop.client_of_record.tolist(), bins))
        assert pop.n_clients < len(populated) < pop.n_clients * cs.q
        assert agg.noise_draws == 2 * len(populated)

    def test_local_noise_release_independent_of_block_size(self):
        rng = philox(5)
        pop = grid_population([5, 1, 3, 7, 2, 4], 2, rng)
        g, h = rng.normal(0, 1, pop.n), rng.random(pop.n)
        cs = d.uniform_candidates(pop.bounds, 6)
        outs, draws = [], []
        for cap in (1, 7, federation.GROUP_GRID_CELLS):
            agg = aggregator(pop, g, h, noise_std=1.0, noise_seed=3, local_noise=True)
            with mock.patch.object(federation, "GROUP_GRID_CELLS", cap):
                outs.append(agg.histogram_round([0], [0, 1], cs, "s"))
            draws.append(agg.noise_draws)
        assert all(np.array_equal(out, outs[0]) for out in outs[1:])
        assert draws[0] == draws[1] == draws[2] > 0

    def test_sharded_release_detects_wraparound(self):
        ds = d.synthesize(400, 2, 0.0, 0.5, seed=3)
        pop = partition(ds, 10, EQUAL_SHARDS, seed=0)
        cs = d.uniform_candidates(pop.bounds, 2)
        fine = FixedPointCodec(precision_bits=48)
        # every record is one encoded contribution: 400 records of g = 1 need
        # 400 * (2^48 + 1) > 2^53, past which float64 drops integers
        agg = aggregator(pop, np.ones(pop.n), np.ones(pop.n), fine)
        with pytest.raises(CodecOverflowError):
            agg.histogram_round([0], [0, 1], cs, "s")
        # at g = h = 0.01, 400 * (0.01 * 2^48 + 1) fits
        tiny = aggregator(pop, np.full(pop.n, 0.01), np.full(pop.n, 0.01), fine)
        assert tiny.histogram_round([0], [0, 1], cs, "s").shape == (2, 1, 2, 2)

    def test_pair_round_needs_one_threshold_per_node(self):
        agg = FederatedAggregator(make_pop(20, 2))
        for thresholds in ([0.5, 0.5, 0.5], [0.5], [[0.5, 0.5]], 0.5):
            with pytest.raises(InvalidParameterError, match="one threshold per node"):
                agg.split_pair_round([1, 2], {0: [0.5, 0.5], 1: thresholds})
        assert agg.rounds == []

    def test_refined_candidates_rebin(self):
        ds = d.synthesize(300, 3, 0.3, 0.5, seed=6)
        pop = partition(ds, 10, EQUAL_SHARDS, seed=1)
        agg = FederatedAggregator(pop)
        agg.recompute_gradients(d.UpdateMode.NEWTON)
        cs = d.uniform_candidates(pop.bounds, 8)
        agg.begin_tree()
        hess = agg.histogram_round([0], range(3), cs, "c")[:, 0, :, 1]
        refined = d.iterative_hessian_refine(dict(enumerate(hess)), cs)
        got = agg.histogram_round([0], range(3), refined, "s")
        fresh = FederatedAggregator(pop)
        fresh.recompute_gradients(d.UpdateMode.NEWTON)
        want = fresh.histogram_round([0], range(3), refined, "s")
        stale = fresh.histogram_round([0], range(3), cs, "s")
        for j in range(3):
            assert np.array_equal(got[j, 0], want[j, 0])
        assert any(not np.array_equal(got[j, 0], stale[j, 0]) for j in range(3))

    def test_binning_once_per_candidate_set(self, monkeypatch):
        calls = []
        original = federation.bin_index

        def counting(values, thresholds):
            calls.append(len(values))
            return original(values, thresholds)

        monkeypatch.setattr(federation, "bin_index", counting)
        pop = make_pop(200, 3, policy=EQUAL_SHARDS, n_clients=10)
        cfg = baseline_preset("FEVERLESS", T=6, d=3, Q=8, ih_rounds=3, m=3, seed=0)
        train(cfg, pop)
        assert len(calls) == 3  # one candidate set, three features
        calls.clear()
        train(cfg.replace(candidate_method=d.CandidateMethod.ITERATIVE_HESSIAN), pop)
        assert len(calls) == 3 * (1 + 3)  # the initial set plus three refinements

    FEVERLESS = baseline_preset("FEVERLESS", T=1, d=4, Q=32, m=3, seed=0)

    def test_grouping_grid_stays_under_cap(self, many_shards, monkeypatch):
        # only the locally noised sharded release builds client grids
        pop = many_shards
        grids = []
        original = federation._client_blocks

        def recording(pop, n_cells):
            blocks = original(pop, n_cells)
            largest = max((end - first) * n_cells for first, end in blocks)
            grids.append((pop.n_clients * n_cells, largest))
            return blocks

        monkeypatch.setattr(federation, "_client_blocks", recording)
        local = d.NoisePlacement.LOCAL
        train(self.FEVERLESS.replace(budget=d.PrivacyBudget(1.0, 1e-3), noise_placement=local), pop)
        assert max(full for full, _ in grids) > federation.GROUP_GRID_CELLS
        assert max(block for _, block in grids) <= federation.GROUP_GRID_CELLS

    @pytest.mark.parametrize("budget", [None, d.PrivacyBudget(1.0, 1e-3)], ids=["exact", "central"])
    def test_central_release_builds_no_client_grid(self, budget, many_shards, monkeypatch):
        def refuse(*args):
            raise AssertionError("a release without local noise went through the client grid")

        monkeypatch.setattr(federation, "_client_blocks", refuse)
        monkeypatch.setattr(FederatedAggregator, "_client_grids", refuse)
        monkeypatch.setattr(FixedPointCodec, "ring_reduce", refuse)
        res = train(self.FEVERLESS.replace(budget=budget), many_shards)
        assert res.rounds == d.plan(res.config)


def test_complex_add_at_equals_two_bincounts():
    # the sharded release scatters each record's (g, h) as one complex128
    # with np.add.at; it relies on numpy adding componentwise, in index order,
    # bit for bit as a float bincount per component does
    rng = philox(12)
    key = rng.integers(0, 7, 500)
    g, h = (rng.normal(0, 1, 500) * 10.0 ** rng.integers(-8, 17, 500) for _ in range(2))
    g[:3] = h[:3] = 2.0**53, 1.0, -(2.0**53)
    key[:3] = 0
    acc = np.zeros(7, np.complex128)
    np.add.at(acc, key, np.stack([g, h], axis=1).view(np.complex128)[:, 0])
    want = np.stack([np.bincount(key, weights=w, minlength=7) for w in (g, h)], axis=1)
    got = acc.view(float).reshape(7, 2)
    assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist(), (
        "numpy's complex add.at no longer sums like two float bincounts"
    )


class TestCentralNoiseAudit:
    """Central noise is one N(0, std^2) draw per released coordinate.

    With zero gradients a release is pure noise, so over many repeats each
    coordinate's sample variance must lie in a chi-square band around std^2
    (Bonferroni-corrected over the release's coordinates) and its mean near
    0; empty cells are covered too. Local placement joins this audit once its
    empty cells are noised (ROADMAP item 1): today their variance is 0.
    """

    REPEATS = 1500
    STD = 1.5 * 0.8  # sigma times sensitivity
    ALPHA = 1e-4  # family-wise, per release kind

    @staticmethod
    def release(agg, kind):
        n = agg.pop.n
        if kind == "level-1 histogram":
            threshold = np.array([np.median(agg.pop.features[:, 0]), 0.0, 0.0])
            agg.apply_splits(np.zeros(3, dtype=np.int64), threshold)
            cs = d.uniform_candidates(agg.pop.bounds, 4)
            return lambda: agg.histogram_round([1, 2], [0, 1], cs, "s")
        if kind == "split pair":
            return lambda: agg.split_pair_round([0], {0: [0.5], 1: [0.3]})
        # every record in leaf 0, leaves 1-3 empty
        return lambda: agg.leaf_round([np.zeros(n, dtype=np.int64)], 4)

    @pytest.mark.parametrize("n_clients", [None, 7], ids=["one-record", "7-shards"])
    @pytest.mark.parametrize("kind", ["level-1 histogram", "split pair", "leaf"])
    def test_every_coordinate_has_the_calibrated_variance(self, n_clients, kind):
        policy = ONE_RECORD_PER_CLIENT if n_clients is None else EQUAL_SHARDS
        pop = make_pop(n=42, m=2, seed=6, policy=policy, n_clients=n_clients)
        zeros = np.zeros(pop.n)
        agg = aggregator(pop, zeros, zeros, noise_std=self.STD, noise_seed=17)
        release = self.release(agg, kind)
        samples = np.stack([release().ravel() for _ in range(self.REPEATS)])
        coords = samples.shape[1]
        assert agg.noise_draws == self.REPEATS * coords
        tail = self.ALPHA / (2 * coords)
        dof = self.REPEATS - 1
        std = self.STD
        lo, hi = stats.chi2.ppf([tail, 1 - tail], dof) / dof * std**2
        variance = samples.var(axis=0, ddof=1)
        assert np.all((lo < variance) & (variance < hi)), (variance, lo, hi)
        mean_bound = stats.norm.ppf(1 - tail) * std / math.sqrt(self.REPEATS)
        assert np.all(np.abs(samples.mean(axis=0)) < mean_bound)


@pytest.mark.parametrize("n_clients", [None, 7], ids=["one-record", "7-shards"])
def test_central_releases_replay_the_oracle_sums_and_the_noise_stream(n_clients):
    # each query's release is its integer-oracle sum plus the next draws of
    # philox(noise_seed), bit for bit, in round order
    policy = ONE_RECORD_PER_CLIENT if n_clients is None else EQUAL_SHARDS
    pop = make_pop(n=42, m=2, seed=6, policy=policy, n_clients=n_clients)
    rng = philox(8)
    g, h = rng.normal(0, 1, pop.n), rng.random(pop.n)
    std, seed, Q = 0.7, 23, 4
    agg = aggregator(pop, g, h, noise_std=std, noise_seed=seed)
    X, cs = pop.features, d.uniform_candidates(pop.bounds, Q)
    agg.apply_splits(np.array([0]), np.array([0.5]))
    pos = (agg.node - 1).tolist()  # nodes 1 and 2
    thresholds = {1: np.array([0.4, 0.6]), 0: np.array([0.3, 0.7])}
    leaves = [rng.integers(0, 4, pop.n) for _ in range(3)]
    released = [
        *agg.histogram_round([1, 2], [0, 1], cs, "s").reshape(2, 2 * Q, 2),
        *agg.split_pair_round([1, 2], thresholds).reshape(2, 4, 2),
        *agg.leaf_round(leaves, 4),
    ]
    # each query's cell of every record, in round order
    cells = [
        [p * Q + closed_right_bin(x, cs.per_feature[j]) for p, x in zip(pos, X[:, j])]
        for j in (0, 1)
    ]
    cells += [
        [2 * p + int(x > thr[p]) for p, x in zip(pos, X[:, j])] for j, thr in thresholds.items()
    ]
    cells += [leaf.tolist() for leaf in leaves]
    noise = philox(seed)
    rows = np.stack([g, h], axis=1).tolist()
    for got, query_cells in zip(released, cells, strict=True):
        want = np.array(ring_cell_sums(rows, query_cells, len(got), 2, 16))
        want = want + noise.normal(0.0, std, got.shape)
        assert got.tobytes() == want.tobytes()
    assert agg.noise_draws == 2 * (2 * 2 * Q + 2 * 4 + 3 * 4)


class TestCanaryAudit:
    """White-box canary audit of the central leaf, histogram and pair
    releases (Jagielski, Ullman & Oprea, NeurIPS 2020; Nasr et al., IEEE S&P
    2021).

    A population releases one query many times without and with one added
    canary record, whose (g, h) is its update mode's worst case. Only the
    canary's cell (its leaf, bin or side) may shift, by the canary's (g, h),
    so mu_hat = ||mean shift|| / (measured noise std) estimates the
    Gaussian-DP parameter ||(g, h)|| / (sigma * sensitivity) of one query: it
    must lie in a two-sided band around that value, and so within the
    claimed 1 / sigma. Mis-scaled noise moves mu_hat in either direction.
    """

    SIGMA = 0.5
    TREES = 1000  # a leaf round over 1,000 copies of one assignment: 1,000 releases
    CALLS = 20
    LEAVES = 4
    CANARY_LEAF = 2
    ALPHA = 1e-4  # family-wise, per test case
    # (label, raw score) at which each mode's (g, h) is largest
    WORST = {
        d.UpdateMode.NEWTON: (0, 40.0),
        d.UpdateMode.GRADIENT: (0, 40.0),
        d.UpdateMode.AVERAGING: (1, 40.0),
    }
    # histogram and pair releases: 1,000 identical feature columns, one query
    # each per round, all on the root node
    FEATURES = 1000
    BINS = 4  # thresholds 0, 1/3, 2/3, 1
    PAIR_THRESHOLD = 0.3
    CANARY_X = 0.5  # bin 2 of the histogram, the right side of the pair
    CANARY_CELL = {"histogram": 2, "pair": 1}

    def releases(self, gh, leaves, noise_std, seed):
        """(TREES * CALLS, LEAVES, 2) leaf releases of one assignment."""
        pop = make_pop(n=leaves.size, m=1, seed=0)  # a leaf round reads no features
        agg = aggregator(pop, *gh, noise_std=noise_std, noise_seed=seed)
        return np.concatenate(
            [agg.leaf_round([leaves] * self.TREES, self.LEAVES) for _ in range(self.CALLS)]
        )

    def feature_releases(self, kind, x, gh, sizes, noise_std, seed):
        """(FEATURES * CALLS, cells, 2) root histogram or pair releases, the
        pair's cells being its left and right side."""
        X = np.repeat(x[:, None], self.FEATURES, axis=1)
        bounds = ((0.0, 1.0),) * self.FEATURES
        pop = ClientPopulation(X, np.zeros(x.size), bounds, client_sizes=np.asarray(sizes))
        agg = aggregator(pop, *gh, noise_std=noise_std, noise_seed=seed)
        features = range(self.FEATURES)
        if kind == "histogram":
            cs = d.uniform_candidates(pop.bounds, self.BINS)
            release = lambda: agg.histogram_round([0], features, cs, "s")  # noqa: E731
        else:
            proposals = {j: [self.PAIR_THRESHOLD] for j in features}
            release = lambda: agg.split_pair_round([0], proposals)  # noqa: E731
        return np.concatenate(
            [release().reshape(self.FEATURES, -1, 2) for _ in range(self.CALLS)]
        )

    def assert_canary_band(self, without, with_canary, cell, canary, noise_std):
        """Only ``cell`` shifts, and its mu_hat lies in the band around
        ||canary|| / noise std and under the claimed 1 / sigma."""
        runs, cells = without.shape[:2]
        shift = with_canary.mean(axis=0) - without.mean(axis=0)  # (cells, 2)
        residuals = np.concatenate(
            [with_canary - with_canary.mean(axis=0), without - without.mean(axis=0)]
        )
        std = residuals.std()
        mu_hat = np.linalg.norm(shift[cell]) / std
        mu = np.linalg.norm(canary) / noise_std
        # mu_hat's standard error: the mean shift's, plus the std estimate's
        se = math.sqrt(2.0 / runs + mu**2 / (2.0 * residuals.size))
        checks = 2 + 2 * (cells - 1)  # band, claim, each other cell's two coordinates
        z = stats.norm.ppf(1 - self.ALPHA / (2 * checks))
        assert abs(mu_hat - mu) < z * se, (mu_hat, mu, se)
        assert mu_hat < 1.0 / self.SIGMA + z * se, (mu_hat, 1.0 / self.SIGMA)
        others = np.delete(shift, cell, axis=0)
        assert np.all(np.abs(others) < z * std * math.sqrt(2.0 / runs)), others

    def canary(self, mode):
        label, raw = self.WORST[mode]
        return d.mode_gradients(np.array([label]), np.array([raw]), mode)

    @pytest.mark.parametrize("mode", list(WORST), ids=lambda mode: mode.value)
    def test_canary_shift_is_within_the_claimed_mu(self, mode):
        rng = np.random.default_rng(11)
        n = 40
        gh = d.mode_gradients(rng.integers(0, 2, n), rng.normal(0.0, 1.0, n), mode)
        leaves = rng.integers(0, self.LEAVES, n)
        canary = self.canary(mode)
        std = self.SIGMA * d.query_sensitivity(mode)
        without = self.releases(gh, leaves, std, seed=1)
        with_canary = self.releases(
            np.concatenate([gh, canary], axis=1), np.append(leaves, self.CANARY_LEAF), std, 2
        )
        self.assert_canary_band(without, with_canary, self.CANARY_LEAF, canary, std)

    @pytest.mark.parametrize("clients", [None, 8], ids=["one-record", "8-shards"])
    @pytest.mark.parametrize("kind", ["histogram", "pair"])
    def test_feature_release_canary_shift_is_within_the_claimed_mu(self, kind, clients):
        mode = d.UpdateMode.NEWTON
        rng = np.random.default_rng(12)
        n = 40
        x = rng.random(n)
        gh = d.mode_gradients(rng.integers(0, 2, n), rng.normal(0.0, 1.0, n), mode)
        # the canary joins as a client of its own, or as one more record of the last shard
        if clients is None:
            sizes, canary_sizes = np.ones(n, dtype=np.int64), np.ones(n + 1, dtype=np.int64)
        else:
            sizes = np.full(clients, n // clients)
            canary_sizes = sizes.copy()
            canary_sizes[-1] += 1
        canary = self.canary(mode)
        std = self.SIGMA * d.query_sensitivity(mode)
        without = self.feature_releases(kind, x, gh, sizes, std, seed=1)
        with_canary = self.feature_releases(
            kind,
            np.append(x, self.CANARY_X),
            np.concatenate([gh, canary], axis=1),
            canary_sizes,
            std,
            seed=2,
        )
        self.assert_canary_band(without, with_canary, self.CANARY_CELL[kind], canary, std)


class TestAggregatorMeters:
    @pytest.mark.parametrize("std", [0.0, -1.0, math.nan, math.inf])
    def test_noise_std_must_be_positive_and_finite(self, std):
        with pytest.raises(InvalidParameterError, match="noise std"):
            FederatedAggregator(make_pop(4, 1), noise_std=std)

    def test_one_draw_per_released_coordinate(self):
        pop = make_pop(40, 3)
        agg = FederatedAggregator(pop, noise_std=1.0, noise_seed=1)
        agg.recompute_gradients(d.UpdateMode.NEWTON)
        cs = d.uniform_candidates(pop.bounds, 4)
        agg.histogram_round([0], [0, 1], cs, "s")
        assert released(agg.rounds) == 2 * 4 * 2
        assert agg.noise_draws == released(agg.rounds)
        agg.leaf_round([np.zeros(40, dtype=np.int64)], 4)
        assert agg.noise_draws == released(agg.rounds) == 16 + 8

    def test_ledger_categories(self):
        pop = make_pop(20, 2)
        agg = FederatedAggregator(pop)
        cs = d.uniform_candidates(pop.bounds, 4)
        agg.begin_tree()
        agg.histogram_round([0], [0, 1], cs, "c")
        agg.histogram_round([0], [0], cs, "s")
        agg.leaf_round([np.zeros(20, dtype=np.int64)], 2)
        assert d.QueryCounter.from_rounds(agg.rounds).as_tuple() == (2, 1, 1)
        # (kind, queries, nodes, cells): Q = 4 bins per root histogram, 2 leaves
        assert agg.rounds == [d.Round("c", 2, 1, 4), d.Round("s", 1, 1, 4), d.Round("w", 1, 1, 2)]
        assert [r.uplink for r in agg.rounds] == [2 * 2 * 4, 2 * 4, 2 * 2]

    # unchecked, these raise numpy errors (most after metering) or release wrong cells
    MALFORMED = {
        "unknown category": lambda agg, cs: agg.histogram_round([0], [0], cs, "x"),
        "no features": lambda agg, cs: agg.histogram_round([0], [], cs, "s"),
        "no histogram nodes": lambda agg, cs: agg.histogram_round([], [0], cs, "s"),
        "no proposals": lambda agg, cs: agg.split_pair_round([0], {}),
        "no pair nodes": lambda agg, cs: agg.split_pair_round([], {0: []}),
        "no trees": lambda agg, cs: agg.leaf_round([], 4),
        "a record in leaf 5 of 4": lambda agg, cs: agg.leaf_round([np.r_[5, np.zeros(19, int)]], 4),
        "negative leaf": lambda agg, cs: agg.leaf_round([np.full(20, -1)], 4),
        "second tree out of range": lambda agg, cs: agg.leaf_round(
            [np.zeros(20, dtype=np.int64), np.full(20, 4)], 4
        ),
        "length-1 assignment": lambda agg, cs: agg.leaf_round([np.array([2])], 4),
        "float assignment": lambda agg, cs: agg.leaf_round([np.zeros(20)], 4),
        "feature 5 of 2": lambda agg, cs: one_level(agg).histogram_round([1, 2], [5], cs, "s"),
        "feature -1": lambda agg, cs: one_level(agg).histogram_round([1, 2], [-1], cs, "s"),
        "pair feature 7 of 2": lambda agg, cs: one_level(agg).split_pair_round(
            [1, 2], {7: [0.5, 0.5]}
        ),
        "duplicate node": lambda agg, cs: one_level(agg).histogram_round([1, 1, 2], [0], cs, "s"),
        "negative node": lambda agg, cs: one_level(agg).histogram_round([-1, 1, 2], [0], cs, "s"),
        "node of the next level": lambda agg, cs: one_level(agg).split_pair_round(
            [1, 2, 3], {0: [0.5, 0.5, 0.5]}
        ),
    }

    @pytest.mark.parametrize("n_clients", [None, 4], ids=["one-record", "4-shards"])
    @pytest.mark.parametrize("case", list(MALFORMED))
    def test_malformed_round_is_refused_unmetered(self, n_clients, case):
        policy = ONE_RECORD_PER_CLIENT if n_clients is None else EQUAL_SHARDS
        pop = make_pop(20, 2, policy=policy, n_clients=n_clients)
        agg = FederatedAggregator(pop, noise_std=1.0, noise_seed=3)
        agg.recompute_gradients(d.UpdateMode.NEWTON)
        with pytest.raises(InvalidParameterError):
            self.MALFORMED[case](agg, d.uniform_candidates(pop.bounds, 4))
        assert agg.rounds == [] and agg.noise_draws == 0

    def test_central_noise_training_draws_one_gaussian_per_released_coordinate(self):
        ds = d.synthesize(60, 5, 0.2, 0.5, seed=9)
        pops = (partition(ds, None, ONE_RECORD_PER_CLIENT), partition(ds, 7, EQUAL_SHARDS, seed=1))
        spy = mock.patch.object(
            FederatedAggregator, "_noise", autospec=True, side_effect=FederatedAggregator._noise
        )
        for pop, name in itertools.product(pops, PRESET_NAMES):
            cfg = baseline_preset(name, T=12, d=3, Q=8, ih_rounds=3, m=5, seed=1)
            if cfg.noise_placement is d.NoisePlacement.LOCAL:
                continue
            cfg = cfg.replace(budget=d.PrivacyBudget(2.0, 1e-3))
            with spy as noise:
                res = train(cfg, pop)
            drawn = sum(math.prod(call.args[1]) for call in noise.call_args_list)
            assert drawn == released(res.rounds) > 0, (pop.n_clients, name)

    def test_sharded_population_matches_singleton_sums(self):
        ds = d.synthesize(60, 2, 0.0, 0.5, seed=8)
        single = partition(ds, None, ONE_RECORD_PER_CLIENT)
        sharded = partition(ds, 7, EQUAL_SHARDS, seed=1)
        cs = d.uniform_candidates(ds.bounds, 6)
        outs = []
        for pop in (single, sharded):
            agg = FederatedAggregator(pop)
            agg.recompute_gradients(d.UpdateMode.NEWTON)
            res = agg.histogram_round([0], [0], cs, "s")
            outs.append(np.concatenate(res[0, 0].T))
        assert outs[0].tobytes() == outs[1].tobytes()  # exact sums have no order


class TestCommAccounting:
    def test_tr_single_batch(self):
        cfg = d.TrainConfig(T=200, B=200, d=4, m=10)
        ledger = comm_accounting(cfg)
        assert ledger.rounds == 1
        assert ledger.per_round_payload == 2 * 200 * 16
        assert "secure_agg_round_factor" not in {f.name for f in dataclasses.fields(ledger)}

    def test_hist_rounds(self):
        cfg = d.TrainConfig(T=25, d=4, m=10, split_method=d.SplitMethod.HIST)
        assert comm_accounting(cfg).rounds == 100

    def test_tr_with_refinement_rounds(self):
        cfg = d.TrainConfig(
            T=100, B=1, m=10, candidate_method=d.CandidateMethod.ITERATIVE_HESSIAN, ih_rounds=5
        )
        assert comm_accounting(cfg).rounds == 105

    def test_uplink_bytes(self):
        cfg = d.TrainConfig(T=10, d=2, m=3)
        ledger = comm_accounting(cfg)
        assert ledger.uplink_bytes == ledger.uplink_values * 8

    def test_live_meters_match_formula_for_every_preset(self):
        ds = d.synthesize(60, 5, 0.2, 0.5, seed=9)
        pops = (partition(ds, None, ONE_RECORD_PER_CLIENT), partition(ds, 7, EQUAL_SHARDS, seed=1))
        variants = (
            {},
            {"B": 4},
            {"split_method": d.SplitMethod.PARTIALLY_RANDOM},
            {"candidate_method": d.CandidateMethod.ITERATIVE_HESSIAN},
            {"feature_mode": d.FeatureMode.RANDOM, "k": 2},
        )
        for pop, name, overrides in itertools.product(pops, PRESET_NAMES, variants):
            cfg = baseline_preset(name, T=12, d=3, Q=8, ih_rounds=3, m=5, seed=1)
            cfg = cfg.replace(budget=d.PrivacyBudget(2.0, 1e-3), **overrides)
            res = train(cfg, pop)
            where = (pop.n_clients, name, overrides)
            assert res.rounds == d.plan(cfg), where
            assert res.queries == d.count_queries(cfg), where
            ledger = comm_accounting(cfg)
            assert (res.comm_rounds, res.comm_uplink_values) == (
                ledger.rounds, ledger.uplink_values
            ), where


TINY = d.synthesize(24, 3, 0.2, 0.5, seed=4)


class TestQueryPlan:
    @given(
        split=st.sampled_from(list(d.SplitMethod)),
        update=st.sampled_from(list(d.UpdateMode)),
        cand=st.sampled_from(list(d.CandidateMethod)),
        feature_mode=st.sampled_from(list(d.FeatureMode)),
        k=st.one_of(st.none(), st.integers(1, 3)),
        T=st.integers(1, 6),
        depth=st.integers(1, 3),
        Q=st.integers(2, 5),
        ih_rounds=st.integers(1, 4),
        batch=st.integers(1, 6),
        shards=st.sampled_from([None, 1, 5]),
        private=st.booleans(),
        local=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_executed_rounds_equal_plan(
        self, split, update, cand, feature_mode, k, T, depth, Q, ih_rounds, batch, shards,
        private, local, seed,
    ):
        cfg = d.TrainConfig(
            T=T,
            d=depth,
            Q=Q,
            split_method=split,
            update_mode=update,
            candidate_method=cand,
            ih_rounds=ih_rounds,
            feature_mode=feature_mode,
            k=k,
            B=min(batch, T),
            budget=d.PrivacyBudget(1.0, 1e-3) if private else None,
            seed=seed,
            noise_placement=d.NoisePlacement.LOCAL if local else d.NoisePlacement.CENTRAL,
        )
        policy = ONE_RECORD_PER_CLIENT if shards is None else EQUAL_SHARDS
        res = train(cfg, partition(TINY, shards, policy, seed=seed))
        assert res.rounds == d.plan(res.config)
