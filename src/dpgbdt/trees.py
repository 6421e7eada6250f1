"""Decision-tree construction over aggregated gradient statistics.

Trees are always grown to full depth d (2^d leaves), even through empty
regions: under noise an empty node is indistinguishable from a sparse one,
and a fixed shape keeps the query count of a run a pure function of its
configuration.

Three split methods:

  hist - at every internal node, request a noisy per-feature gradient
         histogram and pick the feature/threshold pair maximising the
         second-order split score over cumulative prefix splits.
  partially random (pr) - draw one random threshold per feature, request the
         two-sided aggregate for each, keep the best-scoring feature.
  totally random (tr) - draw feature and threshold uniformly; structure never
         touches data.

Single-feature trees (k = 1) are special-cased for hist and pr: every node is
an interval of the root histogram's bins, so one histogram per tree provides
all split scores and leaf sums.

Builders talk to the federation layer only through an aggregator handle; raw
records never appear here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .accounting import InvalidParameterError
from .candidates import SplitCandidateSet
from .gradients import UpdateMode

__all__ = [
    "SplitMethod",
    "TreeNode",
    "Tree",
    "split_score",
    "leaf_weight",
    "postprocess_weight",
    "select_features",
    "grow_tree_totally_random",
    "grow_tree_histogram",
    "grow_tree_partially_random",
    "grow_tree_single_feature",
]


class SplitMethod(Enum):
    HIST = "hist"
    PARTIALLY_RANDOM = "pr"
    TOTALLY_RANDOM = "tr"


@dataclass
class TreeNode:
    feature: int | None = None
    threshold: float | None = None
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None
    weight: float | None = None
    leaf_index: int | None = None

    @property
    def is_leaf(self) -> bool:
        return self.feature is None


@dataclass
class Tree:
    """Full binary split tree; leaf k (left-to-right) holds leaf_weights[k]."""

    root: TreeNode
    max_depth: int
    feature_subset: tuple[int, ...]
    leaf_weights: np.ndarray | None = None

    @property
    def n_leaves(self) -> int:
        return 2 ** self.max_depth

    def route(self, X: np.ndarray) -> np.ndarray:
        """Leaf index for every row of X (split rule: x <= threshold goes left)."""
        X = np.asarray(X, dtype=float)
        if X.ndim != 2:
            raise ValueError("route expects an n x m matrix")
        out = np.empty(X.shape[0], dtype=np.int64)
        stack = [(self.root, np.arange(X.shape[0]))]
        while stack:
            node, idx = stack.pop()
            if node.is_leaf:
                out[idx] = node.leaf_index
                continue
            mask = X[idx, node.feature] <= node.threshold
            stack.append((node.left, idx[mask]))
            stack.append((node.right, idx[~mask]))
        return out

    def set_leaf_weights(self, weights: np.ndarray) -> None:
        weights = np.asarray(weights, dtype=float)
        if weights.shape != (self.n_leaves,):
            raise ValueError(f"expected {self.n_leaves} leaf weights")
        self.leaf_weights = weights
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                node.weight = float(weights[node.leaf_index])
            else:
                stack.extend((node.left, node.right))

    def to_dict(self) -> dict:
        def encode(node: TreeNode) -> dict:
            if node.is_leaf:
                return {"kind": "leaf", "weight": node.weight}
            return {
                "kind": "internal",
                "feature": node.feature,
                "threshold": node.threshold,
                "left": encode(node.left),
                "right": encode(node.right),
            }

        return {
            "max_depth": self.max_depth,
            "feature_subset": list(self.feature_subset),
            "root": encode(self.root),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Tree":
        counter = [0]

        def decode(spec: dict) -> TreeNode:
            if spec["kind"] == "leaf":
                node = TreeNode(weight=spec["weight"], leaf_index=counter[0])
                counter[0] += 1
                return node
            return TreeNode(
                feature=int(spec["feature"]),
                threshold=float(spec["threshold"]),
                left=decode(spec["left"]),
                right=decode(spec["right"]),
            )

        root = decode(payload["root"])
        tree = cls(root, int(payload["max_depth"]), tuple(payload["feature_subset"]))
        weights = np.zeros(tree.n_leaves)
        stack = [root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                weights[node.leaf_index] = node.weight if node.weight is not None else 0.0
            else:
                stack.extend((node.left, node.right))
        tree.leaf_weights = weights
        return tree


def split_score(
    G_L: float, H_L: float, G_R: float, H_R: float, lam: float, gamma: float = 0.0
) -> float:
    """Second-order gain of splitting a node into left/right gradient sums.

    Hessian sums are floored at zero before entering denominators so scores
    stay finite under noise; this requires lam > 0 whenever a floored sum can
    be zero.
    """
    if lam < 0 or gamma < 0:
        raise InvalidParameterError("lam and gamma must be non-negative")
    hl = max(H_L, 0.0)
    hr = max(H_R, 0.0)
    if lam == 0.0 and (hl == 0.0 or hr == 0.0):
        raise InvalidParameterError("zero denominator: need lam > 0 when a side has no Hessian mass")
    gt = G_L + G_R
    return 0.5 * (
        G_L * G_L / (hl + lam) + G_R * G_R / (hr + lam) - gt * gt / (hl + hr + lam)
    ) - gamma


def _prefix_split_scores(G: np.ndarray, H: np.ndarray, lam: float, gamma: float):
    """Scores for splitting at every candidate via cumulative bin sums.

    Bins run along the last axis; candidate c sends bins 0..c left. Returns
    the score array plus the (G_L, H_L, G_R, H_R) arrays so the chosen child
    sums can be reused.
    """
    GL = np.cumsum(G, axis=-1)
    HL = np.cumsum(H, axis=-1)
    GR = GL[..., -1:] - GL
    HR = HL[..., -1:] - HL
    hl = np.maximum(HL, 0.0)
    hr = np.maximum(HR, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        left = np.where(hl + lam > 0, GL * GL / (hl + lam), np.where(GL == 0, 0.0, np.inf))
        right = np.where(hr + lam > 0, GR * GR / (hr + lam), np.where(GR == 0, 0.0, np.inf))
        denom = hl + hr + lam
        parent = np.where(denom > 0, (GL + GR) ** 2 / denom, 0.0)
    scores = 0.5 * (left + right - parent) - gamma
    return scores, (GL, HL, GR, HR)


def _pair_score(G_L, H_L, G_R, H_R, lam, gamma) -> float:
    hl = max(H_L, 0.0)
    hr = max(H_R, 0.0)
    gt = G_L + G_R
    left = G_L * G_L / (hl + lam) if hl + lam > 0 else 0.0
    right = G_R * G_R / (hr + lam) if hr + lam > 0 else 0.0
    parent = gt * gt / (hl + hr + lam) if hl + hr + lam > 0 else 0.0
    return 0.5 * (left + right - parent) - gamma


def leaf_weight(G: float, H_or_count: float, lam: float, mode: UpdateMode) -> float:
    """Raw (pre-learning-rate) weight of a leaf from its aggregate sums.

    gradient/newton: -G / (max(H, 0) + lam), the regularised optimum of the
    first/second-order objective. averaging: +G / (max(count, 0) + lam), the
    smoothed positive-class proportion.
    """
    denom = max(H_or_count, 0.0) + lam
    if denom <= 0.0:
        raise InvalidParameterError(
            f"non-positive leaf denominator {denom}; need lam > 0 for empty or noisy leaves"
        )
    if mode is UpdateMode.AVERAGING:
        return G / denom
    if mode in (UpdateMode.GRADIENT, UpdateMode.NEWTON):
        return -G / denom
    raise InvalidParameterError(f"unknown update mode: {mode!r}")


def postprocess_weight(w: float, eta: float, beta: float) -> float:
    """Magnitude-clip a raw leaf weight at beta, then scale by the learning rate.

    Applies to gradient/newton updates only; averaging leaves store plain
    proportions. beta = 0 zeroes the leaf.
    """
    if eta <= 0.0:
        raise InvalidParameterError(f"learning rate must be positive, got {eta}")
    if beta < 0.0:
        raise InvalidParameterError(f"clip factor must be non-negative, got {beta}")
    return eta * math.copysign(min(abs(w), beta), w) if w != 0.0 else 0.0


def select_features(
    mode: str, k: int, tree_index: int, m: int, rng: np.random.Generator
) -> tuple[int, ...]:
    """Feature subset F for one tree: cyclical windows or a random k-subset.

    cyclical: features (t*k) mod m .. (t*k + k - 1) mod m, so consecutive
    trees sweep the feature space in order (k = 1 trains one feature per
    tree). random: k distinct uniform indices.
    """
    if not (1 <= k <= m):
        raise InvalidParameterError(f"need 1 <= k <= m, got k={k}, m={m}")
    if mode == "cyclical":
        start = (tree_index * k) % m
        return tuple(sorted((start + i) % m for i in range(k)))
    if mode == "random":
        return tuple(sorted(int(j) for j in rng.choice(m, size=k, replace=False)))
    raise InvalidParameterError(f"unknown feature mode: {mode!r}")


def _routing_threshold(cand_set: SplitCandidateSet, j: int, c: int) -> float:
    """Threshold that routes records consistently with bin-prefix statistics.

    The last bin of a histogram absorbs everything above the final candidate,
    so a split chosen at the last candidate is the all-left split; it routes
    on the feature's upper bound rather than the candidate value.
    """
    if c == cand_set.q - 1:
        return float(cand_set.bounds[j][1])
    return float(cand_set.per_feature[j][c])


def _tree_from_heap(feat_of: dict, thr_of: dict, depth: int) -> TreeNode:
    offset = 2 ** depth - 1

    def build(heap_id: int, dep: int) -> TreeNode:
        if dep == depth:
            return TreeNode(leaf_index=heap_id - offset)
        return TreeNode(
            feature=feat_of[heap_id],
            threshold=thr_of[heap_id],
            left=build(2 * heap_id + 1, dep + 1),
            right=build(2 * heap_id + 2, dep + 1),
        )

    return build(0, 0)


def grow_tree_totally_random(
    rng: np.random.Generator,
    feature_subset,
    cand_set: SplitCandidateSet,
    depth: int,
) -> Tree:
    """Draw the whole structure from the RNG; no data access at all."""
    feats = sorted(feature_subset)
    if not feats:
        raise InvalidParameterError("feature subset must be non-empty")
    counter = [0]

    def build(dep: int) -> TreeNode:
        if dep == depth:
            node = TreeNode(leaf_index=counter[0])
            counter[0] += 1
            return node
        j = feats[int(rng.integers(len(feats)))]
        c = int(rng.integers(cand_set.q))
        thr = float(cand_set.per_feature[j][c])
        return TreeNode(feature=j, threshold=thr, left=build(dep + 1), right=build(dep + 1))

    return Tree(build(0), depth, tuple(feats))


def grow_tree_histogram(
    agg,
    feature_subset,
    cand_set: SplitCandidateSet,
    depth: int,
    lam: float,
    gamma: float,
):
    """Greedy histogram tree: one noisy histogram per (level, feature).

    Ties in the split score resolve to the lowest feature index, then the
    lowest candidate index. Leaf sums are the prefix/suffix of the parent's
    chosen-feature histogram, so the weight phase needs no extra query.

    Returns (tree, {leaf_index: (G, H)}, {feature: root Hessian bins}).
    """
    feats = sorted(feature_subset)
    if not feats:
        raise InvalidParameterError("feature subset must be non-empty")
    agg.begin_tree()
    feat_of: dict[int, int] = {}
    thr_of: dict[int, float] = {}
    leaf_stats: dict[int, tuple[float, float]] = {}
    root_hessians: dict[int, np.ndarray] = {}
    for level in range(depth):
        nodes = list(range(2 ** level - 1, 2 ** (level + 1) - 1))
        res = agg.histogram_round(nodes, feats, cand_set, category="s")
        if level == 0:
            root_hessians = {j: res[j][0][1].copy() for j in feats}
        # (node, feature, candidate) scores of the whole level; the first
        # maximum of a node's flattened row is its lowest feature, then
        # lowest candidate, among the best.
        G, H = (np.array([[res[j][node][s] for j in feats] for node in nodes]) for s in (0, 1))
        scores, sides = _prefix_split_scores(G, H, lam, gamma)
        best = scores.reshape(len(nodes), -1).argmax(axis=1)
        splits = {}
        for i, node in enumerate(nodes):
            f, c = divmod(int(best[i]), cand_set.q)
            j = feats[f]
            thr = _routing_threshold(cand_set, j, c)
            feat_of[node] = j
            thr_of[node] = thr
            splits[node] = (j, thr)
            if level == depth - 1:
                GL, HL, GR, HR = (float(side[i, f, c]) for side in sides)
                leaf_stats[2 * node + 1] = (GL, HL)
                leaf_stats[2 * node + 2] = (GR, HR)
        agg.apply_splits(splits)
    root = _tree_from_heap(feat_of, thr_of, depth)
    offset = 2 ** depth - 1
    leaves = {heap - offset: v for heap, v in leaf_stats.items()}
    return Tree(root, depth, tuple(feats)), leaves, root_hessians


def grow_tree_partially_random(
    agg,
    rng: np.random.Generator,
    feature_subset,
    cand_set: SplitCandidateSet,
    depth: int,
    lam: float,
    gamma: float,
):
    """One random threshold per feature per node; keep the best-scoring feature.

    Needs only a two-sided aggregate per proposal, not a full histogram.
    Returns (tree, {leaf_index: (G, H)}).
    """
    feats = sorted(feature_subset)
    if not feats:
        raise InvalidParameterError("feature subset must be non-empty")
    agg.begin_tree()
    feat_of: dict[int, int] = {}
    thr_of: dict[int, float] = {}
    leaf_stats: dict[int, tuple[float, float]] = {}
    for level in range(depth):
        nodes = list(range(2 ** level - 1, 2 ** (level + 1) - 1))
        proposals = {}
        for j in feats:
            per_node = {}
            for node in nodes:
                c = int(rng.integers(cand_set.q))
                per_node[node] = float(cand_set.per_feature[j][c])
            proposals[j] = per_node
        res = agg.split_pair_round(proposals, category="s")
        splits = {}
        for node in nodes:
            best = None
            for j in feats:
                GL, HL, GR, HR = res[j][node]
                sc = _pair_score(GL, HL, GR, HR, lam, gamma)
                if best is None or sc > best[0]:
                    best = (sc, j, proposals[j][node], (GL, HL, GR, HR))
            _, j, thr, stats = best
            feat_of[node] = j
            thr_of[node] = thr
            splits[node] = (j, thr)
            if level == depth - 1:
                GL, HL, GR, HR = stats
                leaf_stats[2 * node + 1] = (GL, HL)
                leaf_stats[2 * node + 2] = (GR, HR)
        agg.apply_splits(splits)
    root = _tree_from_heap(feat_of, thr_of, depth)
    offset = 2 ** depth - 1
    leaves = {heap - offset: v for heap, v in leaf_stats.items()}
    return Tree(root, depth, tuple(feats)), leaves


def grow_tree_single_feature(
    agg,
    rng: np.random.Generator,
    method: SplitMethod,
    feature_j: int,
    cand_set: SplitCandidateSet,
    depth: int,
    lam: float,
    gamma: float,
):
    """Hist or PR tree on a single feature from one root histogram.

    Every node of a single-feature tree is a contiguous bin interval, so the
    root histogram supplies split scores at every level and the leaf sums,
    at the cost of a single query per tree.

    Returns (tree, {leaf_index: (G, H)}, {feature: root Hessian bins}).
    """
    res = agg.histogram_round([0], [feature_j], cand_set, category="s")
    G, H = res[feature_j][0]
    Q = G.size
    cum_g = np.concatenate([[0.0], np.cumsum(G)])
    cum_h = np.concatenate([[0.0], np.cumsum(H)])
    counter = [0]
    leaf_stats: dict[int, tuple[float, float]] = {}

    def seg(lo: int, hi: int) -> tuple[float, float]:
        return float(cum_g[hi] - cum_g[lo]), float(cum_h[hi] - cum_h[lo])

    def build(lo: int, hi: int, dep: int) -> TreeNode:
        if dep == depth:
            node = TreeNode(leaf_index=counter[0])
            leaf_stats[counter[0]] = seg(lo, hi)
            counter[0] += 1
            return node
        if method is SplitMethod.HIST:
            cuts = np.clip(np.arange(1, Q + 1), lo, hi)
            GL = cum_g[cuts] - cum_g[lo]
            HL = cum_h[cuts] - cum_h[lo]
            g_tot, h_tot = seg(lo, hi)
            GR = g_tot - GL
            HR = h_tot - HL
            hl = np.maximum(HL, 0.0)
            hr = np.maximum(HR, 0.0)
            with np.errstate(divide="ignore", invalid="ignore"):
                left = np.where(hl + lam > 0, GL * GL / (hl + lam), np.where(GL == 0, 0.0, np.inf))
                right = np.where(hr + lam > 0, GR * GR / (hr + lam), np.where(GR == 0, 0.0, np.inf))
                denom = hl + hr + lam
                parent = np.where(denom > 0, (GL + GR) ** 2 / denom, 0.0)
            scores = 0.5 * (left + right - parent) - gamma
            c = int(np.argmax(scores))
        elif method is SplitMethod.PARTIALLY_RANDOM:
            c = int(rng.integers(Q))
        else:
            raise InvalidParameterError("single-feature growth applies to hist/pr only")
        cut = min(max(c + 1, lo), hi)
        return TreeNode(
            feature=feature_j,
            threshold=_routing_threshold(cand_set, feature_j, c),
            left=build(lo, cut, dep + 1),
            right=build(cut, hi, dep + 1),
        )

    root = build(0, Q, 0)
    tree = Tree(root, depth, (feature_j,))
    return tree, leaf_stats, {feature_j: np.asarray(H).copy()}
