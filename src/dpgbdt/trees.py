"""Decision-tree construction over aggregated gradient statistics.

Trees are always grown to full depth d (2^d leaves), even through empty
regions: under noise an empty node is indistinguishable from a sparse one,
and a fixed shape keeps the query count of a run a pure function of its
configuration. A complete tree is stored as heap-ordered arrays (see
``Tree``), which the builders fill level by level or in pre-order.

Three split methods:

  hist - at every internal node, request a noisy per-feature gradient
         histogram and pick the feature/threshold pair maximising the
         second-order split score over cumulative prefix splits.
  partially random (pr) - draw one random threshold per feature, request the
         two-sided aggregate for each, keep the best-scoring feature.
  totally random (tr) - draw feature and threshold uniformly; structure never
         touches data.

hist and pr trees come from one builder, ``grow_tree``: at each level it
scores the splits offered to every node and keeps the best. A single-feature
tree (k = 1) is offered splits from one root histogram, since every node is
an interval of its bins, so it costs one query per tree.

Builders talk to the federation layer only through an aggregator handle; raw
records never appear here. ``grow_tree`` returns the tree plus its leaf sums
as a (2^d, 2) array of (G, H) rows, leaf k in row k.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, fields
from enum import Enum

import numpy as np

from .accounting import InvalidParameterError
from .candidates import SplitCandidateSet
from .data import json_int, json_keys, json_number
from .gradients import UpdateMode

__all__ = [
    "SplitMethod",
    "Tree",
    "descend",
    "split_score",
    "leaf_weight",
    "postprocess_weight",
    "select_features",
    "grow_tree_totally_random",
    "grow_tree",
]


class SplitMethod(Enum):
    HIST = "hist"
    PARTIALLY_RANDOM = "pr"
    TOTALLY_RANDOM = "tr"


def descend(
    X: np.ndarray, node: np.ndarray, level: int, feature: np.ndarray, threshold: np.ndarray
) -> np.ndarray:
    """Move every row of X from its heap node at depth ``level`` to the child
    its split picks.

    Node i sends a row to 2i + 1 when x[feature[i]] <= threshold[i], else to
    2i + 2 (so NaN goes right). Each of the level's 2^level nodes compares
    its feature column once (contiguous when X is feature-major) and ORs the
    outcome of its own rows into one left mask. Node ids come back in the
    narrowest unsigned dtype that holds the deepest heap id 2^(d+1) - 2 (one
    byte up to d = 7). This is the only routing step: ``Tree.route`` applies
    it d times, and clients apply it once per announced level.
    """
    first = 2**level - 1
    node = node.astype(np.min_scalar_type(2 * feature.size), copy=False)
    left = np.zeros(X.shape[0], dtype=bool)
    for i in range(first, 2 * first + 1):
        left |= (node == i) & (X[:, feature[i]] <= threshold[i])
    return 2 * node + 2 - left


@dataclass
class Tree:
    """Complete binary split tree of depth d in heap order.

    Internal node i (0 <= i < 2^d - 1) splits on ``feature[i]`` at
    ``threshold[i]``; its children are 2i + 1 (left) and 2i + 2 (right).
    Heap id i >= 2^d - 1 is leaf k = i - (2^d - 1), left to right, and holds
    ``leaf_weights[k]``. The tree's JSON form is these three arrays as lists.
    """

    feature: np.ndarray  # int64, (2^d - 1,)
    threshold: np.ndarray  # float, (2^d - 1,)
    leaf_weights: np.ndarray  # float, (2^d,)

    @classmethod
    def zeros(cls, depth: int) -> "Tree":
        """A depth-``depth`` tree with every split and weight zero, to be filled."""
        n_internal = 2 ** depth - 1
        return cls(
            np.zeros(n_internal, dtype=np.int64), np.zeros(n_internal), np.zeros(n_internal + 1)
        )

    @property
    def max_depth(self) -> int:
        return self.feature.size.bit_length()  # 2^d - 1 is d one-bits

    @property
    def n_leaves(self) -> int:
        return 2 ** self.max_depth

    def route(self, X: np.ndarray) -> np.ndarray:
        """Leaf index for every row of X (split rule: x <= threshold goes left)."""
        X = np.asarray(X, dtype=float)
        if X.ndim != 2:
            raise ValueError("route expects an n x m matrix")
        node = np.zeros(X.shape[0], dtype=np.min_scalar_type(2 * self.feature.size))
        for level in range(self.max_depth):
            node = descend(X, node, level, self.feature, self.threshold)
        return node - self.feature.size

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name).tolist() for f in fields(self)}

    @classmethod
    def from_dict(cls, payload: dict) -> "Tree":
        """Tree from its JSON form.

        Raises InvalidParameterError unless, for some depth d >= 0, the tree
        has 2^d - 1 features and thresholds and 2^d leaf weights, each
        feature a JSON integer and every threshold and weight a JSON number.
        Keys other than exactly those ``to_dict`` writes raise it too, as does
        a value of any other type.
        """
        try:
            json_keys(payload, [f.name for f in fields(cls)], "tree")
            feature = np.array([json_int(v, "feature") for v in payload["feature"]], dtype=np.int64)
            threshold = np.array([json_number(v, "threshold") for v in payload["threshold"]])
            weights = np.array([json_number(v, "leaf weight") for v in payload["leaf_weights"]])
        except (KeyError, TypeError, OverflowError) as exc:
            raise InvalidParameterError(f"malformed tree: {exc!r}") from exc
        d = feature.size.bit_length()
        if not (feature.size == threshold.size == 2**d - 1 and weights.size == 2**d):
            raise InvalidParameterError(
                f"tree is not complete: {feature.size} features, {threshold.size} thresholds "
                f"and {weights.size} leaf weights, where depth d needs 2^d - 1, 2^d - 1 and 2^d"
            )
        return cls(feature, threshold, weights)


@functools.cache
def _preorder(depth: int) -> np.ndarray:
    """Internal heap ids of a depth-``depth`` tree in pre-order (node, left
    subtree, right subtree): the order the random builders draw in. Built
    once per depth and returned read-only."""
    n_internal, order, stack = 2 ** depth - 1, [], [0]
    while stack:
        heap = stack.pop()
        if heap < n_internal:
            order.append(heap)
            stack += [2 * heap + 2, 2 * heap + 1]
    order = np.array(order, dtype=np.int64)
    order.setflags(write=False)
    return order


def split_score(GL, HL, GR, HR, lam: float, gamma: float):
    """Second-order gain of splitting a node into left sums (GL, HL) and
    right sums (GR, HR), elementwise over aligned arrays or scalars.

    0.5 (GL^2 / (HL + lam) + GR^2 / (HR + lam) - (GL + GR)^2 / (HL + HR + lam))
    - gamma, with Hessian sums floored at zero so scores stay finite under
    noise. It never raises or warns: at lam = 0 a side whose floored Hessian
    is zero scores 0 if its gradient sum is 0 and inf otherwise, and a parent
    with no Hessian mass contributes 0. A split whose terms cancel as
    inf - inf (lam = 0 with subnormal Hessian sums) scores -inf, so no
    builder ever chooses it; every other score is the formula's value.
    """
    hl = np.maximum(HL, 0.0)
    hr = np.maximum(HR, 0.0)
    with np.errstate(all="ignore"):
        denom = hl + hr + lam
        if lam > 0:  # every denominator is positive
            left, right, parent = GL * GL / (hl + lam), GR * GR / (hr + lam), (GL + GR) ** 2 / denom
        else:
            left = np.where(hl + lam > 0, GL * GL / (hl + lam), np.where(GL == 0, 0.0, np.inf))
            right = np.where(hr + lam > 0, GR * GR / (hr + lam), np.where(GR == 0, 0.0, np.inf))
            parent = np.where(denom > 0, (GL + GR) ** 2 / denom, 0.0)
        # fmax(nan, -inf) is -inf and fmax(x, -inf) is x for every other x
        return np.fmax(0.5 * (left + right - parent) - gamma, -np.inf)


def leaf_weight(G, H_or_count, lam: float, mode: UpdateMode):
    """Raw (pre-learning-rate) weight of a leaf from its aggregate sums.

    gradient/newton: -G / (max(H, 0) + lam), the regularised optimum of the
    first/second-order objective. averaging: +G / (max(count, 0) + lam), the
    smoothed positive-class proportion. Elementwise over aligned arrays of
    leaves; scalars give a scalar.
    """
    G = np.asarray(G, dtype=float)
    denom = np.maximum(np.asarray(H_or_count, dtype=float), 0.0) + lam
    if np.any(denom <= 0.0):
        raise InvalidParameterError(
            f"non-positive leaf denominator {denom.min()}; "
            "need lam > 0 for empty or noisy leaves"
        )
    if mode is UpdateMode.AVERAGING:
        return (G / denom)[()]
    if mode in (UpdateMode.GRADIENT, UpdateMode.NEWTON):
        return (-G / denom)[()]
    raise InvalidParameterError(f"unknown update mode: {mode!r}")


def postprocess_weight(w, eta: float, beta: float):
    """Magnitude-clip a raw leaf weight at beta, then scale by the learning rate.

    Applies to gradient/newton updates only; averaging leaves store plain
    proportions. beta = 0 zeroes the leaf. Elementwise over an array of
    weights; a scalar gives a scalar.
    """
    if eta <= 0.0:
        raise InvalidParameterError(f"learning rate must be positive, got {eta}")
    if beta < 0.0:
        raise InvalidParameterError(f"clip factor must be non-negative, got {beta}")
    w = np.asarray(w, dtype=float)
    magnitude = np.abs(w)
    clipped = np.where(beta < magnitude, beta, magnitude)  # min(|w|, beta), keeping |w| on ties
    return np.where(w != 0.0, eta * np.copysign(clipped, w), 0.0)[()]


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


def grow_tree_totally_random(
    rng: np.random.Generator,
    feature_subset,
    cand_set: SplitCandidateSet,
    depth: int,
    agg=None,
) -> Tree:
    """Draw the whole structure from the RNG; no data access at all.

    Each internal node draws its feature, then its candidate, in pre-order;
    one array draw yields the values, and leaves the stream in the state, of
    those scalar draws. Leaf weights stay zero until the batch's leaf round.
    Given ``agg``, its clients then descend the tree, leaving ``agg.node`` at
    the leaves.
    """
    feats = np.array(sorted(feature_subset), dtype=np.int64)
    if not feats.size:
        raise InvalidParameterError("feature subset must be non-empty")
    tree = Tree.zeros(depth)
    order = _preorder(depth)
    f, c = rng.integers(np.tile([feats.size, cand_set.q], order.size)).reshape(-1, 2).T
    tree.feature[order] = feats[f]
    tree.threshold[order] = cand_set.table[feats[f], c]
    if agg is not None:
        agg.begin_tree()
        for _ in range(depth):
            agg.apply_splits(tree.feature, tree.threshold)
    return tree


def _routing_thresholds(cand_set: SplitCandidateSet, feats) -> np.ndarray:
    """Threshold of every candidate of ``feats``, feature-major, that routes
    records consistently with bin-prefix statistics.

    The last bin of a histogram absorbs everything above the final candidate,
    so a split at the last candidate is the all-left split; it routes on the
    feature's upper bound rather than the candidate value.
    """
    thresholds = cand_set.table[feats]
    thresholds[:, -1] = [cand_set.bounds[j][1] for j in feats]
    return thresholds.ravel()


def grow_tree(
    agg,
    rng: np.random.Generator,
    method: SplitMethod,
    feature_subset,
    cand_set: SplitCandidateSet,
    depth: int,
    lam: float,
    gamma: float,
):
    """Grow a hist or pr tree level by level from the splits offered to each node.

    Each level offers every node splits as (node, offer) arrays of left and
    right (G, H) sums, feature-major, and one ``split_score`` argmax keeps
    the node's first best offer: ties go to the lowest feature, then the
    lowest candidate. hist offers every (feature, candidate) prefix split of
    the level's histogram round; pr offers, per feature, the candidate drawn
    for each node (feature by feature) in the level's pair round. A
    single-feature tree (k = 1) makes one root histogram round: every node is
    a bin interval, offered the candidates inside it (hist) or the one drawn
    for it in pre-order before the first level (pr).

    Histogram offers route on ``_routing_thresholds``; pair offers route on
    the drawn candidate, so pr's last candidate is a real split. Clients
    descend one level after each level, so ``agg.node`` ends at the leaves.

    Returns (tree, (2^d, 2) leaf sums, {feature: root Hessian bins}); the
    last is empty when no histogram was released. The leaf sums are the last
    level's chosen offers, or for k = 1 the leaves' bin intervals, so leaf
    weights need no further query.
    """
    feats = sorted(feature_subset)
    if not feats:
        raise InvalidParameterError("feature subset must be non-empty")
    if depth < 1:
        raise InvalidParameterError(f"depth must be at least 1, got {depth}")
    if method not in (SplitMethod.HIST, SplitMethod.PARTIALLY_RANDOM):
        raise InvalidParameterError(f"grow_tree grows hist or pr trees, not {method!r}")
    hist, single, Q = method is SplitMethod.HIST, len(feats) == 1, cand_set.q
    agg.begin_tree()
    tree = Tree.zeros(depth)
    feature_of = np.repeat(feats, Q if hist else 1)  # the feature of each offer
    routing = _routing_thresholds(cand_set, feats) if hist or single else None
    root_hessians = {}
    if single:
        res = agg.histogram_round([0], feats, cand_set, category="s")
        root_hessians = dict(zip(feats, res[:, 0, :, 1]))
        cum = np.concatenate([np.zeros((1, 2)), np.cumsum(res[0, 0], axis=0)])
        cum_g, cum_h = cum.T
        # bin interval [lo, hi) of every heap node, parents set before children
        lo = np.zeros(2 * tree.n_leaves - 1, dtype=np.int64)
        hi = np.full(2 * tree.n_leaves - 1, Q, dtype=np.int64)
        if hist:
            offered = np.arange(Q)  # every candidate, at every node
        else:  # one candidate per node, drawn in pre-order
            offered = np.zeros((tree.feature.size, 1), dtype=np.int64)
            offered[_preorder(depth), 0] = rng.integers(Q, size=tree.feature.size)
    for level in range(depth):
        nodes = np.arange(2**level - 1, 2 ** (level + 1) - 1)
        if single:
            a, b = lo[nodes, None], hi[nodes, None]
            cand = offered if hist else offered[nodes]
            cuts = np.clip(cand + 1, a, b)
            GL = cum_g[cuts] - cum_g[a]
            HL = cum_h[cuts] - cum_h[a]
            sides = GL, HL, (cum_g[b] - cum_g[a]) - GL, (cum_h[b] - cum_h[a]) - HL
            thr = routing[cand]
        elif hist:
            res = agg.histogram_round(nodes, feats, cand_set, category="s")  # (F, nodes, Q, 2)
            if level == 0:
                root_hessians = dict(zip(feats, res[:, 0, :, 1]))
            by_node = res.transpose(1, 0, 2, 3)
            GL, HL = np.cumsum(by_node[..., 0], axis=-1), np.cumsum(by_node[..., 1], axis=-1)
            sides = (GL, HL, GL[..., -1:] - GL, HL[..., -1:] - HL)
            sides = [side.reshape(nodes.size, -1) for side in sides]  # offer f * Q + c
            thr = routing
        else:
            drawn = rng.integers(Q, size=(len(feats), nodes.size))  # feature by feature
            proposals = dict(zip(feats, drawn))  # candidate indices
            sides = agg.split_pair_round(nodes, proposals, cand_set).T  # (4, nodes, F)
            thr = np.take_along_axis(cand_set.table[feats], drawn, 1).T
        best = split_score(*sides, lam, gamma).argmax(axis=1)
        rows = nodes - nodes[0]
        tree.feature[nodes] = feature_of[best]
        tree.threshold[nodes] = thr[rows, best] if thr.ndim == 2 else thr[best]
        if single:
            cut = cuts[rows, best]
            lo[2 * nodes + 1], hi[2 * nodes + 1] = lo[nodes], cut
            lo[2 * nodes + 2], hi[2 * nodes + 2] = cut, hi[nodes]
        agg.apply_splits(tree.feature, tree.threshold)
    if single:
        return tree, cum[hi[-tree.n_leaves :]] - cum[lo[-tree.n_leaves :]], root_hessians
    # last level: node i's chosen (G_L, H_L, G_R, H_R) are the sums of leaves 2i, 2i + 1
    leaves = np.stack([side[rows, best] for side in sides], axis=1)
    return tree, leaves.reshape(-1, 2), root_hessians
