import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import dpgbdt as d
import dpgbdt.federation as federation
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
    ldp_release,
    partition,
    secure_sum,
)
from dpgbdt.harness import baseline_preset

from oracles import client_cell_vectors, closed_right_bin


def make_pop(n=32, m=2, seed=0, policy=ONE_RECORD_PER_CLIENT, n_clients=None):
    ds = d.synthesize(n, m, 0.0, 0.5, seed=seed)
    return partition(ds, n_clients, policy, seed=seed)


def aggregator(pop, g, h, codec=None, **kwargs):
    agg = FederatedAggregator(pop, codec=codec, **kwargs)
    agg.gh = np.stack([g, h])
    return agg


def root_histogram(pop, thresholds, g, h, codec=None):
    """{0: (G, H)}: the root node's histogram of feature 0."""
    thr = np.asarray(thresholds, dtype=float)
    cs = d.SplitCandidateSet((thr,) * pop.m, pop.bounds)
    return aggregator(pop, g, h, codec).histogram_round([0], [0], cs, "s")[0]


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
        codec = FixedPointCodec(precision_bits=8, ring_bits=24)
        vals = np.array([3.5, -7.25])
        assert np.allclose(codec.decode(codec.encode(vals)), vals)

    def test_capacity_check(self):
        codec = FixedPointCodec(precision_bits=8, ring_bits=16)
        with pytest.raises(CodecOverflowError):
            codec.check_capacity(1000, 10.0)

    def test_bad_params(self):
        with pytest.raises(ValueError):
            FixedPointCodec(precision_bits=70)
        with pytest.raises(ValueError):
            FixedPointCodec(precision_bits=8, ring_bits=63)


class TestSecureSum:
    def test_plain_example(self):
        codec = FixedPointCodec()
        out = secure_sum(np.array([[1.0], [2.0], [3.0]]), codec)
        assert abs(out[0] - 6.0) <= 3 / 2**17

    def test_exactness_bound_many_vectors(self):
        rng = philox(1)
        codec = FixedPointCodec()
        for _ in range(1000):
            c = int(rng.integers(1, 50))
            dim = int(rng.integers(1, 8))
            contribs = rng.normal(0, 10, (c, dim))
            got = secure_sum(contribs, codec)
            assert np.abs(got - contribs.sum(axis=0)).max() <= c / (2 * codec.scale) + 1e-12

    @given(p=st.integers(4, 24))
    @settings(max_examples=20)
    def test_exactness_across_scales(self, p):
        codec = FixedPointCodec(precision_bits=p)
        rng = philox(p)
        contribs = rng.normal(0, 3, (20, 5))
        got = secure_sum(contribs, codec)
        assert np.abs(got - contribs.sum(axis=0)).max() <= 20 / (2 * codec.scale) + 1e-12

    def test_noise_distribution(self):
        codec = FixedPointCodec()
        rng = philox(42)
        noise = d.NoiseScale(2.0, 1.5)  # std 3.0
        draws = np.concatenate(
            [secure_sum(np.zeros((1, 10)), codec, noise, rng) for _ in range(10_000)]
        )
        assert draws.size == 100_000
        assert abs(draws.std() / noise.std - 1.0) < 0.02
        ks = stats.kstest(draws, "norm", args=(0.0, noise.std))
        assert ks.pvalue > 0.01

    def test_empty_contributions(self):
        codec = FixedPointCodec()
        assert np.all(secure_sum(np.zeros((0, 4)), codec) == 0.0)
        noisy = secure_sum(np.zeros((0, 4)), codec, d.NoiseScale(1.0, 1.0), philox(0))
        assert noisy.shape == (4,)
        assert np.any(noisy != 0.0)

    def test_wraparound_detected(self):
        codec = FixedPointCodec(precision_bits=8, ring_bits=16)
        with pytest.raises(CodecOverflowError):
            secure_sum(np.full((200, 1), 100.0), codec)


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
        stacked = np.vstack([pop.client_view(c)[0] for c in range(pop.n_clients)])
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


class TestHistogramQuery:
    def test_binning_example(self):
        # 4 records with g=1, h=1, all in bin 2 of Q=3
        X = np.full((4, 1), 0.4)
        ds = d.Dataset(X, np.ones(4, dtype=int), ((0.0, 1.0),))
        pop = partition(ds, None, ONE_RECORD_PER_CLIENT)
        out = root_histogram(pop, [0.25, 0.5, 0.75], g=np.ones(4), h=np.ones(4))
        G, H = out[0]
        assert np.allclose(G, [0, 4, 0])
        assert np.allclose(H, [0, 4, 0])

    def test_boundary_value_falls_left(self):
        X = np.array([[0.5]])
        ds = d.Dataset(X, np.array([1]), ((0.0, 1.0),))
        pop = partition(ds, None, ONE_RECORD_PER_CLIENT)
        out = root_histogram(pop, [0.25, 0.5, 0.75], g=np.ones(1), h=np.ones(1))
        assert np.allclose(out[0][0], [0, 1, 0])

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
            out = root_histogram(pop, thr, g=g, h=h, codec=codec)
            G, H = out[0]
            assert G.sum() == pytest.approx(g.sum(), abs=n / codec.scale)
            assert H.sum() == pytest.approx(h.sum(), abs=n / codec.scale)

    def test_each_record_lands_in_exactly_one_bin(self):
        # counting h = 1 per record: total histogram mass equals n
        n = 64
        ds = d.synthesize(n, 1, 0.0, 0.5, seed=3)
        pop = partition(ds, None, ONE_RECORD_PER_CLIENT)
        thr = np.linspace(0.1, 0.9, 6)
        out = root_histogram(pop, thr, g=np.ones(n), h=np.ones(n))
        assert out[0][0].sum() == pytest.approx(n, abs=1e-6)


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
        agg = aggregator(
            pop, np.ones(4), np.ones(4), noise=d.NoiseScale(1.0, 1.0), noise_seed=5
        )
        out = agg.leaf_round([np.zeros(4, dtype=np.int64)], 2)[0]
        assert out[1, 0] != 0.0 and abs(out[1, 0]) < 10.0


class TestLdp:
    def test_sqrt_n_noise_growth(self):
        n = 400
        ds = d.Dataset(np.full((n, 1), 0.5), np.zeros(n, dtype=int), ((0.0, 1.0),))
        pop = partition(ds, None, ONE_RECORD_PER_CLIENT)
        noise = d.NoiseScale(1.0, 2.0)
        agg = FederatedAggregator(pop, noise=noise, noise_seed=9, local_noise=True)
        agg.gh = np.zeros((2, n))
        sums = np.concatenate(
            [agg.leaf_round([np.zeros(n, dtype=np.int64)], 1)[0].ravel() for _ in range(2000)]
        )
        target = noise.std * math.sqrt(n)
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

    def test_ldp_release_scalar(self):
        g, h = ldp_release(0.5, 0.25, d.NoiseScale(1.0, 1.0), philox(3))
        assert g != 0.5 or h != 0.25
        assert ldp_release(0.5, 0.25, None, philox(3)) == (0.5, 0.25)


def grid_population(sizes, m, rng):
    """Clients of the given shard sizes over features on a 1/20 grid, so
    that records land exactly on thresholds drawn from the same grid."""
    n = int(sum(sizes))
    X = rng.integers(0, 21, size=(n, m)) / 20
    ds = d.Dataset(X, rng.integers(0, 2, n), ((0.0, 1.0),) * m)
    return ClientPopulation(ds.features, ds.labels, np.asarray(sizes), ds.bounds, "grid")


class TestClientDataPlane:
    @given(
        sizes=st.lists(st.integers(1, 6), min_size=1, max_size=12),
        Q=st.integers(2, 9),
        ring_bits=st.sampled_from([64, 20]),
        grid_cap=st.sampled_from([1, 7, federation.GROUP_GRID_CELLS]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_rounds_equal_dense_secure_sum(self, sizes, Q, ring_bits, grid_cap, seed):
        rng = philox(seed)
        m = 2
        pop = grid_population(sizes, m, rng)
        codec = FixedPointCodec(precision_bits=8, ring_bits=ring_bits)
        g, h = rng.normal(0, 1, pop.n), rng.random(pop.n)
        nodes = sorted(int(v) for v in rng.choice(15, size=int(rng.integers(1, 5)), replace=False))
        node_of_record = rng.choice(nodes, size=pop.n)
        pos = [nodes.index(nid) for nid in node_of_record]
        grid = np.arange(1, 20) / 20
        cs = d.SplitCandidateSet(
            tuple(np.sort(rng.choice(grid, Q, replace=False)) for _ in range(m)), pop.bounds
        )
        proposals = {j: {nid: float(rng.choice(grid)) for nid in nodes} for j in range(m)}

        agg = aggregator(pop, g, h, codec)
        agg.node = node_of_record
        with mock.patch.object(federation, "GROUP_GRID_CELLS", grid_cap):
            hist = agg.histogram_round(nodes, range(m), cs, "s")
            pairs = agg.split_pair_round(proposals)

        for j in range(m):
            X = pop.features[:, j]
            cells = [p * Q + closed_right_bin(x, cs.per_feature[j]) for p, x in zip(pos, X)]
            want = secure_sum(client_cell_vectors(sizes, cells, g, h, len(nodes) * Q), codec)
            got = np.concatenate([np.stack(hist[j][nid], axis=1) for nid in nodes])
            assert np.array_equal(got, want.reshape(-1, 2))

            cells = [2 * p + int(x > proposals[j][nid]) for p, x, nid in zip(pos, X, node_of_record)]
            want = secure_sum(client_cell_vectors(sizes, cells, g, h, len(nodes) * 2), codec)
            got = np.array([pairs[j][nid] for nid in nodes])
            assert np.array_equal(got.reshape(-1, 2), want.reshape(-1, 2))

    def test_local_noise_draws_once_per_populated_pair(self):
        rng = philox(4)
        pop = grid_population([5, 1, 3, 7, 2], 2, rng)
        agg = aggregator(
            pop,
            rng.normal(0, 1, pop.n),
            rng.random(pop.n),
            noise=d.NoiseScale(1.0, 1.0),
            noise_seed=2,
            local_noise=True,
        )
        cs = d.uniform_candidates(pop.bounds, 6)
        agg.histogram_round([0], [0], cs, "s")
        bins = [closed_right_bin(x, cs.per_feature[0]) for x in pop.features[:, 0]]
        populated = set(zip(pop.client_of_record.tolist(), bins))
        assert pop.n_clients < len(populated) < pop.n_clients * cs.q
        assert agg.noise_draws == 2 * len(populated)

    def test_refined_candidates_rebin(self):
        ds = d.synthesize(300, 3, 0.3, 0.5, seed=6)
        pop = partition(ds, 10, EQUAL_SHARDS, seed=1)
        agg = FederatedAggregator(pop)
        agg.recompute_gradients(d.UpdateMode.NEWTON)
        cs = d.uniform_candidates(pop.bounds, 8)
        hess = agg.hessian_round(range(3), cs)
        refined = d.iterative_hessian_refine(
            d.HessianHistogram(tuple(hess[j] for j in range(3))), cs, 8
        )
        got = agg.histogram_round([0], range(3), refined, "s")
        fresh = FederatedAggregator(pop)
        fresh.recompute_gradients(d.UpdateMode.NEWTON)
        want = fresh.histogram_round([0], range(3), refined, "s")
        stale = fresh.histogram_round([0], range(3), cs, "s")
        for j in range(3):
            assert np.array_equal(np.stack(got[j][0]), np.stack(want[j][0]))
        assert any(not np.array_equal(np.stack(got[j][0]), np.stack(stale[j][0])) for j in range(3))

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

    def test_grouping_grid_stays_under_cap(self, monkeypatch):
        n = 5000
        ds = d.synthesize(n, 3, 0.0, 0.5, seed=3)
        pop = partition(ds, n - 1, EQUAL_SHARDS, seed=0)
        grids = []
        original = federation._client_blocks

        def recording(pop, n_cells):
            blocks = original(pop, n_cells)
            largest = max((end - first) * n_cells for first, end in blocks)
            grids.append((pop.n_clients * n_cells, largest))
            return blocks

        monkeypatch.setattr(federation, "_client_blocks", recording)
        train(baseline_preset("FEVERLESS", T=1, d=4, Q=32, m=3, seed=0), pop)
        assert max(full for full, _ in grids) > federation.GROUP_GRID_CELLS
        assert max(block for _, block in grids) <= federation.GROUP_GRID_CELLS


class TestAggregatorMeters:
    def test_one_draw_per_released_coordinate(self):
        pop = make_pop(40, 3)
        agg = FederatedAggregator(pop, noise=d.NoiseScale(1.0, 1.0), noise_seed=1)
        agg.recompute_gradients(d.UpdateMode.NEWTON)
        cs = d.uniform_candidates(pop.bounds, 4)
        agg.histogram_round([0], [0, 1], cs, "s")
        assert agg.coords_released == 2 * 4 * 2
        assert agg.noise_draws == agg.coords_released
        agg.leaf_round([np.zeros(40, dtype=np.int64)], 4)
        assert agg.noise_draws == agg.coords_released == 16 + 8

    def test_ledger_categories(self):
        pop = make_pop(20, 2)
        agg = FederatedAggregator(pop)
        cs = d.uniform_candidates(pop.bounds, 4)
        agg.hessian_round([0, 1], cs)
        agg.histogram_round([0], [0], cs, "s")
        agg.leaf_round([np.zeros(20, dtype=np.int64)], 2)
        assert agg.ledger.snapshot().as_tuple() == (2, 1, 1)

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
            outs.append(np.concatenate(res[0][0]))
        assert np.allclose(outs[0], outs[1], atol=1e-3)


class TestCommAccounting:
    def test_tr_single_batch(self):
        cfg = d.TrainConfig(T=200, B=200, d=4, m=10)
        ledger = comm_accounting(cfg)
        assert ledger.rounds == 1
        assert ledger.per_round_payload == 2 * 200 * 16
        assert ledger.secure_agg_round_factor == 3

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
        from dpgbdt.boosting import train
        from dpgbdt.harness import PRESET_NAMES, baseline_preset

        ds = d.synthesize(60, 5, 0.2, 0.5, seed=9)
        pop = partition(ds, None, ONE_RECORD_PER_CLIENT)
        for name in PRESET_NAMES:
            for B_override in (None, 4):
                cfg = baseline_preset(name, T=12, d=3, Q=8, ih_rounds=3, m=5, seed=1)
                if B_override is not None and cfg.B == 1:
                    cfg = cfg.replace(B=B_override)
                cfg = cfg.with_budget(d.PrivacyBudget(2.0, 1e-3))
                res = train(cfg, pop)
                formula = comm_accounting(cfg)
                assert res.comm_rounds == formula.rounds, (name, B_override)
                assert res.comm_uplink_values == formula.uplink_values, (name, B_override)
