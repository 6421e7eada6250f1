"""The traced benchmark (``bench/spans.py``) meters the rounds the aggregator runs.

``spans.py`` counts cells and uplink from each round's bound call arguments,
so it reads the round methods' parameter names; these tests load it
read-only and check it against the live signatures and the run's own comm
counters.
"""

import inspect
import types
from pathlib import Path

import numpy as np
import pytest

import dpgbdt as d
import dpgbdt.boosting as boosting
from dpgbdt.federation import EQUAL_SHARDS, FederatedAggregator, partition
from dpgbdt.harness import baseline_preset

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    """``bench/spans.py`` run from its source, so no bytecode is written beside it."""
    module = types.ModuleType("bench_spans")
    exec(compile(SPANS.read_text(encoding="utf-8"), str(SPANS), "exec"), module.__dict__)
    return module


def bound(method, *args):
    return inspect.signature(method).bind(*args).arguments


def test_round_counts_bind_the_round_signatures(spans):
    pop = partition(d.synthesize(60, 3, 0.0, 0.5, seed=1), 4, EQUAL_SHARDS)
    agg = FederatedAggregator(pop)
    cs = d.uniform_candidates(pop.bounds, 5)
    args = (agg, [0], [0, 2], cs, "s")
    counts = spans._histogram_counts(bound(FederatedAggregator.histogram_round, *args))
    agg.histogram_round(*args[1:])
    assert counts == {"cells": 2 * 2 * 5, "record_scans": 2 * pop.n, "uplink": 2 * 2 * 5}
    assert counts["uplink"] == agg.rounds[-1].uplink
    agg.apply_splits(np.zeros(1, dtype=np.int64), np.array([0.5]))
    args = (agg, [1, 2], {0: np.array([1, 4]), 2: np.array([0, 3])}, cs)
    counts = spans._pair_counts(bound(FederatedAggregator.split_pair_round, *args))
    agg.split_pair_round(*args[1:])
    assert counts == {"cells": 4 * 2 * 2, "uplink": 4 * 2}
    assert counts["uplink"] == agg.rounds[-1].uplink


@pytest.mark.parametrize("split", [d.SplitMethod.HIST, d.SplitMethod.PARTIALLY_RANDOM])
def test_traced_training_meters_the_run_comm(spans, split):
    pop = partition(d.synthesize(300, 4, 0.2, 0.5, seed=2), 6, EQUAL_SHARDS, seed=1)
    cfg = baseline_preset("FEVERLESS", T=4, d=3, Q=8, m=4, seed=3, split_method=split)
    cfg = cfg.replace(budget=d.PrivacyBudget(1.0, 1e-3))
    originals = dict(vars(FederatedAggregator))
    with spans.Tracer() as tracer:
        res = boosting.train(cfg, pop)
    assert res.comm_rounds > 0
    assert tracer.comm() == (res.comm_rounds, res.comm_uplink_values)
    kind = "histogram_round" if split is d.SplitMethod.HIST else "split_pair_round"
    assert tracer.spans[f"federation.{kind}"].calls == cfg.T * cfg.d
    assert dict(vars(FederatedAggregator)) == originals  # every span unwrapped on exit
