"""Acceptance suite: one test per release criterion, at pinned tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion. Each criterion also enforces its runtime budget.
"""

import contextlib
import math
import sys
import time

import numpy as np
import pytest
from scipy import stats

import dpgbdt as d
from dpgbdt.boosting import train
from dpgbdt.candidates import bin_index
from dpgbdt.data import philox
from dpgbdt.federation import (
    ONE_RECORD_PER_CLIENT,
    FederatedAggregator,
    FixedPointCodec,
    comm_accounting,
    partition,
)
from dpgbdt.harness import PRESET_NAMES, baseline_preset

from oracles import (
    collect_structure,
    gdp_delta_by_integration,
    pairwise_auc,
    reference_greedy_tree,
)


@contextlib.contextmanager
def criterion(number: int, name: str, budget_s: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number:2d} ({name}): FAIL", file=sys.stderr, flush=True)
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget_s, f"criterion {number} exceeded {budget_s}s ({elapsed:.1f}s)"
    print(
        f"[acceptance] criterion {number:2d} ({name}): PASS in {elapsed:.1f}s",
        flush=True,
    )


def median_test_auc(cfg_base, dataset, seeds, eps):
    aucs = []
    for s in seeds:
        pair = d.train_test_split(dataset, 0.7, seed=s)
        pop = partition(pair.train, None, ONE_RECORD_PER_CLIENT)
        cfg = cfg_base.replace(
            seed=s + 1000,
            budget=None if eps is None else d.budget_for(eps, pair.train.n),
        )
        res = train(cfg, pop)
        aucs.append(d.auc_roc(pair.test.labels, d.predict(res.ensemble, pair.test.features)))
    return float(np.median(aucs))


def test_criterion_1_accounting_matches_integrated_privacy_loss():
    with criterion(1, "exact delta vs integrated privacy-loss distribution", 10.0):
        rng = np.random.default_rng(101)
        for _ in range(200):
            mu = math.sqrt(int(rng.integers(1, 3000))) / float(rng.uniform(0.3, 40.0))
            # epsilon at a loss threshold (epsilon - mu^2 / 2) / mu from -3 to 8
            # standard deviations: delta from near 1 down to about 1e-16
            z0 = float(rng.uniform(-min(3.0, mu / 2.0), 8.0))
            epsilon = mu * z0 + mu * mu / 2.0
            impl = d.gdp_delta(mu, epsilon)
            oracle = gdp_delta_by_integration(mu, epsilon)
            assert abs(impl - oracle) <= 1e-6 * oracle, (mu, epsilon)


def test_criterion_2_calibration_scaling_law():
    with criterion(2, "sigma scales like sqrt(queries)", 5.0):
        budget = d.PrivacyBudget(1.0, 1e-5)
        s100 = d.calibrate_sigma(budget, d.QueryCounter(0, 0, 100))
        s200 = d.calibrate_sigma(budget, d.QueryCounter(0, 0, 200))
        ratio = s200 / s100
        assert 1.30 <= ratio <= 1.45, ratio


def test_criterion_3_ledger_conservation_all_presets():
    with criterion(3, "live query count equals formula for all presets", 120.0):
        rng = np.random.default_rng(303)
        ds = d.synthesize(40, 8, 0.25, 0.5, seed=40)
        for case in range(50):
            T = int(rng.integers(1, 21))
            m = int(rng.integers(1, 9))
            depth = int(rng.integers(1, 5))
            Q = int(rng.integers(2, 9))
            s = int(rng.integers(1, 4))
            B = int(rng.integers(1, T + 1))
            sub = d.Dataset(ds.features[:, :m], ds.labels, ds.bounds[:m])
            pop = partition(sub, None, ONE_RECORD_PER_CLIENT)
            for name in PRESET_NAMES:
                cfg = baseline_preset(name, T=T, d=depth, Q=Q, ih_rounds=s, m=m, seed=case)
                if cfg.B == 1:  # B is pinned for DP-RF and the batch preset
                    cfg = cfg.replace(B=B)
                cfg = cfg.replace(budget=d.PrivacyBudget(2.0, 1e-3))
                res = train(cfg, pop)
                expected = d.count_queries(cfg)
                assert res.queries.as_tuple() == expected.as_tuple(), (name, case)


def test_criterion_4_noise_off_matches_bruteforce_reference():
    with criterion(4, "noise-off trees match exhaustive split reference", 60.0):
        rng = np.random.default_rng(404)
        codec = FixedPointCodec(precision_bits=40)
        for trial in range(50):
            n = int(rng.integers(8, 65))
            m = int(rng.integers(1, 5))
            Q = int(rng.integers(2, 6))
            depth = int(rng.integers(1, 4))
            ds = d.synthesize(n, m, 0.4, 0.5, seed=7000 + trial)
            pop = partition(ds, None, ONE_RECORD_PER_CLIENT)
            cfg = d.TrainConfig(
                T=1,
                d=depth,
                Q=Q,
                split_method=d.SplitMethod.HIST,
                candidate_method=d.CandidateMethod.QUANTILE,
                eta=1.0,
                beta=1e9,
                lam=1.0,
                gamma=0.0,
                seed=trial,
            )
            res = train(cfg, pop, codec=codec)
            tree = res.ensemble.trees[0]
            per = tuple(
                d.quantile_candidates(np.sort(ds.features[:, j]), Q, ds.bounds[j])
                for j in range(m)
            )
            ref = reference_greedy_tree(
                ds.features, ds.labels, per, range(m), depth, 1.0, 0.0
            )
            ref_splits, ref_weights = collect_structure(ref)
            payload = tree.to_dict()
            ours = []

            def walk(heap):
                if heap >= len(payload["feature"]):
                    return
                feature = payload["feature"][heap]
                cands = per[feature]
                hits = np.where(np.isclose(cands, payload["threshold"][heap]))[0]
                ours.append((feature, int(hits[-1]) if hits.size else cands.size - 1))
                walk(2 * heap + 1)
                walk(2 * heap + 2)

            walk(0)
            assert ours == ref_splits, f"trial {trial}: structure diverged"
            assert np.allclose(tree.leaf_weights, ref_weights, atol=1e-9), f"trial {trial}"


def test_criterion_5_gradient_correctness():
    with criterion(5, "finite-difference gradients and sensitivity bound", 30.0):
        from oracles import bce_loss

        rng = np.random.default_rng(505)
        step = 1e-6
        labels = rng.integers(0, 2, size=1000)
        raws = rng.normal(0.0, 3.0, size=1000)
        g, h = d.bce_gradients(labels, raws)
        g_up = d.bce_gradients(labels, raws + step)[0]
        g_down = d.bce_gradients(labels, raws - step)[0]
        for i, (label, raw) in enumerate(zip(labels.tolist(), raws.tolist())):
            g_fd = (bce_loss(label, raw + step) - bce_loss(label, raw - step)) / (2 * step)
            assert abs(g[i] - g_fd) <= 1e-5
            assert abs(h[i] - (g_up[i] - g_down[i]) / (2 * step)) <= 1e-5
        labels = rng.integers(0, 2, size=1_000_000)
        raws = rng.normal(0.0, 5.0, size=1_000_000)
        g, h = d.bce_gradients(labels, raws)
        bound = math.sqrt(17.0) / 4.0
        assert np.all(np.hypot(g, h) <= bound + 1e-12)


def test_criterion_6_secure_sum_fidelity():
    with criterion(6, "codec exactness, noise std, KS test", 60.0):
        codec = FixedPointCodec()  # 16 fractional bits
        rng = philox(606)
        for _ in range(1000):
            c = int(rng.integers(1, 60))
            dim = int(rng.integers(1, 6))
            contribs = rng.normal(0.0, 8.0, (c, dim))
            pairs = rng.normal(0.0, 8.0, (c, 2))
            # records scatter encoded (g, h) pairs into cells; locally noised
            # shards reduce dense blocks
            cell = np.zeros(c, dtype=np.int64)
            scattered = codec.ring_sum(codec.encode_pairs(pairs), cell, 1)[0]
            reduced = codec.ring_reduce(np.array_split(contribs, 3), c)
            assert np.abs(scattered - pairs.sum(axis=0)).max() <= c / 2**17
            assert np.abs(reduced - contribs.sum(axis=0)).max() <= c / 2**17

        # a noisy leaf round over zero gradients releases 20 coordinates of pure noise
        std = 3.0
        pop = partition(d.synthesize(8, 1, 0.0, 0.5, seed=6), None, ONE_RECORD_PER_CLIENT)
        agg = FederatedAggregator(pop, codec=codec, noise_std=std, noise_seed=606)
        agg.gh = np.zeros((2, pop.n))
        leaves = np.arange(pop.n, dtype=np.int64)
        draws = np.concatenate([agg.leaf_round([leaves], 10).ravel() for _ in range(5000)])
        assert draws.size == 100_000
        assert abs(draws.std() / std - 1.0) < 0.02
        assert stats.kstest(draws, "norm", args=(0.0, std)).pvalue > 0.01


@pytest.fixture(scope="module")
def benchmark_data():
    return d.synthesize(20_000, 10, skewed_fraction=0.3, class_balance=0.3, seed=0)


SEEDS = (0, 1, 2, 3, 4)


@pytest.mark.slow
def test_criterion_7_tr_beats_hist(benchmark_data):
    with criterion(7, "totally random beats histogram splitting at eps=1", 600.0):
        tr = median_test_auc(d.TrainConfig(T=300, d=4, Q=32), benchmark_data, SEEDS, 1.0)
        hist = median_test_auc(
            d.TrainConfig(T=25, d=4, Q=32, split_method=d.SplitMethod.HIST),
            benchmark_data,
            SEEDS,
            1.0,
        )
        assert tr - hist >= 0.02, (tr, hist)


@pytest.mark.slow
def test_criterion_8_newton_updates_hold_up(benchmark_data):
    with criterion(8, "newton vs averaging/gradient updates at eps=0.5", 600.0):
        tr_newton = median_test_auc(
            d.TrainConfig(T=300, d=4, Q=32), benchmark_data, SEEDS, 0.5
        )
        tr_avg = median_test_auc(
            d.TrainConfig(T=300, d=4, Q=32, update_mode=d.UpdateMode.AVERAGING, B=300),
            benchmark_data,
            SEEDS,
            0.5,
        )
        assert tr_newton >= tr_avg - 0.01, (tr_newton, tr_avg)
        pr_newton = median_test_auc(
            d.TrainConfig(T=25, d=4, Q=32, split_method=d.SplitMethod.PARTIALLY_RANDOM),
            benchmark_data,
            SEEDS,
            0.5,
        )
        pr_grad = median_test_auc(
            d.TrainConfig(
                T=25,
                d=4,
                Q=32,
                split_method=d.SplitMethod.PARTIALLY_RANDOM,
                update_mode=d.UpdateMode.GRADIENT,
            ),
            benchmark_data,
            SEEDS,
            0.5,
        )
        assert pr_newton > pr_grad, (pr_newton, pr_grad)


def test_criterion_9_hessian_refinement_helps_skewed_features():
    with criterion(9, "iterative Hessian refinement beats uniform on skew", 600.0):
        skewed = d.synthesize(20_000, 10, skewed_fraction=1.0, class_balance=0.3, seed=0)
        ih = median_test_auc(
            d.TrainConfig(
                T=100, d=4, Q=32, candidate_method=d.CandidateMethod.ITERATIVE_HESSIAN,
                ih_rounds=5,
            ),
            skewed,
            SEEDS,
            1.0,
        )
        uniform = median_test_auc(d.TrainConfig(T=100, d=4, Q=32), skewed, SEEDS, 1.0)
        assert ih - uniform >= 0.02, (ih, uniform)

        # noiseless refinement strictly reduces the max-bin Hessian mass per
        # round (until it is within 2x of the uniform target)
        x = skewed.features[:, 0]
        h = np.full_like(x, 0.25)
        cs = d.uniform_candidates([skewed.bounds[0]], 32)
        theta = h.sum() / 32
        prev = None
        for _ in range(5):
            hist = np.bincount(bin_index(x, cs.per_feature[0]), weights=h, minlength=32)
            peak = float(hist.max())
            if prev is not None and prev > 2.0 * theta:
                assert peak < prev, (peak, prev)
            prev = peak
            cs = d.iterative_hessian_refine({0: hist}, cs)


@pytest.mark.slow
def test_criterion_10_batched_updates(benchmark_data):
    with criterion(10, "batching matches boosting at eps=0.1, exact rounds", 600.0):
        aucs = {
            B: median_test_auc(
                d.TrainConfig(T=200, d=4, Q=32, B=B), benchmark_data, SEEDS, 0.1
            )
            for B in (1, 20, 50)
        }
        assert max(aucs[20], aucs[50]) >= aucs[1] - 0.005, aucs
        for B in (20, 50):
            plain = comm_accounting(d.TrainConfig(T=200, d=4, Q=32, B=B, m=10))
            assert plain.rounds == math.ceil(200 / B)
            with_ih = comm_accounting(
                d.TrainConfig(
                    T=200, d=4, Q=32, B=B, m=10,
                    candidate_method=d.CandidateMethod.ITERATIVE_HESSIAN, ih_rounds=5,
                )
            )
            assert with_ih.rounds == math.ceil(200 / B) + 5


@pytest.mark.slow
def test_criterion_11_local_noise_gap(benchmark_data):
    with criterion(11, "local-noise baseline trails secure aggregation", 600.0):
        central = median_test_auc(d.TrainConfig(T=300, d=4, Q=32), benchmark_data, SEEDS, 1.0)
        local = median_test_auc(
            d.TrainConfig(T=300, d=4, Q=32, noise_placement=d.NoisePlacement.LOCAL),
            benchmark_data,
            SEEDS,
            1.0,
        )
        assert central - local >= 0.03, (central, local)


def test_criterion_12_auc_kernel():
    with criterion(12, "AUC matches pairwise oracle", 60.0):
        rng = np.random.default_rng(1212)
        for _ in range(100):
            n = int(rng.integers(10, 800))
            y = rng.integers(0, 2, n)
            if y.sum() in (0, n):
                y[0], y[1] = 0, 1
            scores = np.round(rng.random(n), 2)
            assert abs(d.auc_roc(y, scores) - pairwise_auc(y, scores)) <= 1e-12
