#!/usr/bin/env python3
"""Compare split methods (hist / pr / tr) across privacy budgets on synthetic data.

Reproduces the core pattern of the framework: data-independent (totally
random) structure wastes no budget on split decisions, so at equal epsilon a
large random ensemble beats a small greedy one.

Example:
    python scripts/split_method_benchmark.py --n 20000 --m 10 --epsilons 0.5 1.0
"""

import argparse
import time

import numpy as np

import dpgbdt as d


def run(args):
    dataset = d.synthesize(
        args.n, args.m, skewed_fraction=args.skew, class_balance=args.balance, seed=args.data_seed
    )
    methods = {
        "hist": d.TrainConfig(T=args.hist_trees, d=args.depth, Q=args.Q,
                              split_method=d.SplitMethod.HIST),
        "pr": d.TrainConfig(T=args.hist_trees, d=args.depth, Q=args.Q,
                            split_method=d.SplitMethod.PARTIALLY_RANDOM),
        "tr": d.TrainConfig(T=args.tr_trees, d=args.depth, Q=args.Q),
    }
    print(f"{'method':6s} {'eps':>6s} {'T':>4s} {'sigma':>8s} {'median AUC':>11s} {'iqr':>12s} {'sec':>6s}")
    for eps in args.epsilons:
        for name, base in methods.items():
            start = time.perf_counter()
            aucs, sigma = [], 0.0
            for seed in range(args.seeds):
                pair = d.train_test_split(dataset, 0.7, seed=seed)
                auc, _, res = d.run_single(base.replace(seed=seed), pair.train, pair.test, eps)
                aucs.append(auc)
                sigma = res.sigma
            lo, mid, hi = np.percentile(aucs, [25, 50, 75])
            print(
                f"{name:6s} {eps!s:>6s} {base.T:4d} {sigma:8.2f} {mid:11.4f} "
                f"[{lo:.4f},{hi:.4f}] {time.perf_counter() - start:6.1f}"
            )


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=20000)
    parser.add_argument("--m", type=int, default=10)
    parser.add_argument("--skew", type=float, default=0.3)
    parser.add_argument("--balance", type=float, default=0.3)
    parser.add_argument("--depth", type=int, default=4)
    parser.add_argument("--Q", type=int, default=32)
    parser.add_argument("--hist-trees", type=int, default=25)
    parser.add_argument("--tr-trees", type=int, default=300)
    parser.add_argument("--seeds", type=int, default=5)
    parser.add_argument("--data-seed", type=int, default=0)
    parser.add_argument("--epsilons", type=float, nargs="+", default=[0.5, 1.0])
    run(parser.parse_args())


if __name__ == "__main__":
    main()
