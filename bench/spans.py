"""Per-layer spans for the benchmark's traced run.

Each boundary is wrapped at the name its caller looks up at call time: a
module attribute where the caller imported a function by name (``boosting``
imports the ``grow_tree_*`` builders and the accounting functions,
``federation`` imports ``bin_index`` and ``mode_gradients``), a class
attribute for methods (``Tree.route``, the ``FederatedAggregator`` rounds).
Nothing under ``src/`` changes. A boundary that a refactor removed is listed
in ``Tracer.absent`` and reports zero calls instead of failing the run.

A span's self time is its duration minus the durations of the spans it
encloses. Self time is also kept per outermost span, which splits
``Tree.route`` into its share under ``boosting.train`` and under
``boosting.predict``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import defaultdict


class SpanStats:
    __slots__ = ("calls", "self_s", "self_by_root", "counts")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.self_by_root = defaultdict(float)
        self.counts = defaultdict(int)


def _histogram_counts(a):
    q, n_feats = a["cand_set"].q, len(a["features"])
    return {
        "cells": len(a["nodes"]) * n_feats * 2 * q,
        "record_scans": a["self"].pop.n * n_feats,
        "uplink": 2 * q * n_feats,
    }


def _pair_counts(a):
    proposals = a["proposals"]
    return {
        "cells": 4 * sum(len(per_node) for per_node in proposals.values()),
        "uplink": 4 * len(proposals),
    }


def _leaf_counts(a):
    trees = len(a["assignments"])
    return {
        "cells": 2 * a["n_leaves"] * trees,
        "trees": trees,
        "record_scans": a["self"].pop.n * trees,
        "uplink": 2 * a["n_leaves"] * trees,
    }


# (module, class or None, attribute, span name, work counts from the bound arguments)
BOUNDARIES = (
    ("dpgbdt.data", None, "synthesize", "data.synthesize", None),
    ("dpgbdt.data", None, "train_test_split", "data.train_test_split", None),
    ("dpgbdt.federation", None, "partition", "federation.partition", None),
    ("dpgbdt.boosting", None, "train", "boosting.train", None),
    ("dpgbdt.boosting", None, "predict", "boosting.predict", None),
    ("dpgbdt.boosting", None, "count_queries", "accounting.count_queries", None),
    ("dpgbdt.boosting", None, "calibrate_sigma", "accounting.calibrate_sigma", None),
    ("dpgbdt.boosting", None, "iterative_hessian_refine", "candidates.iterative_hessian_refine", None),
    ("dpgbdt.boosting", None, "grow_tree_histogram", "trees.grow_tree_histogram", None),
    ("dpgbdt.boosting", None, "grow_tree_partially_random", "trees.grow_tree_partially_random", None),
    ("dpgbdt.boosting", None, "grow_tree_single_feature", "trees.grow_tree_single_feature", None),
    ("dpgbdt.boosting", None, "grow_tree_totally_random", "trees.grow_tree_totally_random", None),
    ("dpgbdt.federation", None, "bin_index", "candidates.bin_index", None),
    ("dpgbdt.federation", None, "mode_gradients", "gradients.mode_gradients", None),
    ("dpgbdt.federation", "FederatedAggregator", "histogram_round", "federation.histogram_round", _histogram_counts),
    ("dpgbdt.federation", "FederatedAggregator", "split_pair_round", "federation.split_pair_round", _pair_counts),
    ("dpgbdt.federation", "FederatedAggregator", "leaf_round", "federation.leaf_round", _leaf_counts),
    ("dpgbdt.federation", "FederatedAggregator", "apply_splits", "federation.apply_splits", None),
    ("dpgbdt.federation", "FederatedAggregator", "recompute_gradients", "federation.recompute_gradients", None),
    ("dpgbdt.federation", "FederatedAggregator", "apply_score_update", "federation.apply_score_update", None),
    ("dpgbdt.trees", "Tree", "route", "trees.Tree.route", lambda a: {"rows": len(a["X"])}),
)

# Spans that each carry one aggregation round (the comm meter's unit).
ROUND_SPANS = ("federation.histogram_round", "federation.split_pair_round", "federation.leaf_round")


class Tracer:
    """Context manager that wraps every boundary on entry and restores it on exit."""

    def __init__(self):
        self.spans: dict[str, SpanStats] = defaultdict(SpanStats)
        self.absent: list[str] = []
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        for module_name, class_name, attr, name, counts in BOUNDARIES:
            owner = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(owner, class_name, None)
            original = vars(owner).get(attr) if owner is not None else None
            if original is None:
                self.absent.append(name)
                continue
            setattr(owner, attr, self._span(original, name, counts))
            self._patches.append((owner, attr, original))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _span(self, original, name, counts):
        stack, stats = self._stack, self.spans[name]
        signature = inspect.signature(original) if counts is not None else None

        @functools.wraps(original)
        def span(*args, **kwargs):
            if counts is not None:
                for key, value in counts(signature.bind(*args, **kwargs).arguments).items():
                    stats.counts[key] += value
            frame = [name, 0.0]  # [span name, time covered by child spans]
            stack.append(frame)
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                own = elapsed - frame[1]
                stats.calls += 1
                stats.self_s += own
                stats.self_by_root[stack[0][0] if stack else name] += own
                if stack:
                    stack[-1][1] += elapsed

        return span

    def comm(self) -> tuple[int, int]:
        """(aggregation rounds, per-client uplink scalars) seen by the round spans."""
        rounds = sum(self.spans[name].calls for name in ROUND_SPANS)
        uplink = sum(self.spans[name].counts["uplink"] for name in ROUND_SPANS)
        return rounds, uplink
