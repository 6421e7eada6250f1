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

Single-feature trees (k = 1) are special-cased for hist and pr: every node is
an interval of the root histogram's bins, so one histogram per tree provides
all split scores and leaf sums.

Builders talk to the federation layer only through an aggregator handle; raw
records never appear here. The data-dependent builders return the tree plus
its leaf sums as a (2^d, 2) array of (G, H) rows, leaf k in row k.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from enum import Enum

import numpy as np

from .accounting import InvalidParameterError
from .candidates import SplitCandidateSet
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
    "grow_tree_histogram",
    "grow_tree_partially_random",
    "grow_tree_single_feature",
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
    2i + 2. Each of the level's 2^level nodes compares its feature column
    once (contiguous when X is feature-major); every row then picks its
    node's outcome with one flat gather. This is the only routing step:
    ``Tree.route`` applies it d times, and clients apply it once per
    announced level.
    """
    first, n = 2**level - 1, X.shape[0]
    left = np.empty((first + 1, n), dtype=bool)
    for i in range(first + 1):
        np.less_equal(X[:, feature[first + i]], threshold[first + i], out=left[i])
    return 2 * node + 2 - left.ravel()[(node - first) * n + np.arange(n)]


def json_int(value, name: str) -> int:
    """``value`` if it is a JSON integer (an int but not a bool); anything
    else, 2.0 included, raises TypeError naming ``name``."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    return value


def json_number(value, name: str) -> float:
    """``value`` as a float if it is a JSON number (an int or a float, not a
    bool); anything else, a numeric string included, raises TypeError naming
    ``name``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{name} must be a number, got {value!r}")
    return float(value)


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
        node = np.zeros(X.shape[0], dtype=np.int64)
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
        A missing key or a value of any other type raises it too.
        """
        try:
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


def _preorder(depth: int):
    """Internal heap ids of a depth-``depth`` tree in pre-order (node, left
    subtree, right subtree): the order the random builders draw in."""
    n_internal = 2 ** depth - 1
    stack = [0]
    while stack:
        heap = stack.pop()
        if heap < n_internal:
            yield heap
            stack += [2 * heap + 2, 2 * heap + 1]


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
        left = np.where(hl + lam > 0, GL * GL / (hl + lam), np.where(GL == 0, 0.0, np.inf))
        right = np.where(hr + lam > 0, GR * GR / (hr + lam), np.where(GR == 0, 0.0, np.inf))
        denom = hl + hr + lam
        parent = np.where(denom > 0, (GL + GR) ** 2 / denom, 0.0)
        # fmax(nan, -inf) is -inf and fmax(x, -inf) is x for every other x
        return np.fmax(0.5 * (left + right - parent) - gamma, -np.inf)


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
    return split_score(GL, HL, GR, HR, lam, gamma), (GL, HL, GR, HR)


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


def _routing_threshold(cand_set: SplitCandidateSet, j: int, c: int) -> float:
    """Threshold that routes records consistently with bin-prefix statistics.

    The last bin of a histogram absorbs everything above the final candidate,
    so a split chosen at the last candidate is the all-left split; it routes
    on the feature's upper bound rather than the candidate value.
    """
    if c == cand_set.q - 1:
        return float(cand_set.bounds[j][1])
    return float(cand_set.per_feature[j][c])


def _level_nodes(level: int) -> list[int]:
    return list(range(2 ** level - 1, 2 ** (level + 1) - 1))


def grow_tree_totally_random(
    rng: np.random.Generator,
    feature_subset,
    cand_set: SplitCandidateSet,
    depth: int,
) -> Tree:
    """Draw the whole structure from the RNG; no data access at all.

    Each internal node draws its feature, then its candidate, in pre-order.
    Leaf weights stay zero until the batch's leaf round.
    """
    feats = sorted(feature_subset)
    if not feats:
        raise InvalidParameterError("feature subset must be non-empty")
    tree = Tree.zeros(depth)
    for heap in _preorder(depth):
        j = feats[int(rng.integers(len(feats)))]
        c = int(rng.integers(cand_set.q))
        tree.feature[heap] = j
        tree.threshold[heap] = cand_set.per_feature[j][c]
    return tree


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

    Returns (tree, (2^d, 2) leaf sums, {feature: root Hessian bins}).
    """
    feats = sorted(feature_subset)
    if not feats:
        raise InvalidParameterError("feature subset must be non-empty")
    if depth < 1:
        raise InvalidParameterError(f"depth must be at least 1, got {depth}")
    agg.begin_tree()
    tree = Tree.zeros(depth)
    for level in range(depth):
        nodes = _level_nodes(level)
        res = agg.histogram_round(nodes, feats, cand_set, category="s")  # (F, nodes, Q, 2)
        if level == 0:
            root_hessians = dict(zip(feats, res[:, 0, :, 1]))
        # (node, feature, candidate) scores of the whole level; the first
        # maximum of a node's flattened row is its lowest feature, then
        # lowest candidate, among the best.
        by_node = res.transpose(1, 0, 2, 3)
        scores, sides = _prefix_split_scores(by_node[..., 0], by_node[..., 1], lam, gamma)
        f, c = np.divmod(scores.reshape(len(nodes), -1).argmax(axis=1), cand_set.q)
        for i, node in enumerate(nodes):
            j = feats[f[i]]
            tree.feature[node] = j
            tree.threshold[node] = _routing_threshold(cand_set, j, int(c[i]))
        agg.apply_splits(tree.feature, tree.threshold)
    # last level: node i's chosen (GL, HL, GR, HR) are the sums of leaves 2i, 2i + 1
    chosen = np.stack([side[np.arange(len(nodes)), f, c] for side in sides], axis=1)
    return tree, chosen.reshape(-1, 2), root_hessians


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
    Ties resolve to the lowest feature index.
    Returns (tree, (2^d, 2) leaf sums).
    """
    feats = sorted(feature_subset)
    if not feats:
        raise InvalidParameterError("feature subset must be non-empty")
    if depth < 1:
        raise InvalidParameterError(f"depth must be at least 1, got {depth}")
    agg.begin_tree()
    tree = Tree.zeros(depth)
    for level in range(depth):
        nodes = _level_nodes(level)
        # one candidate per (feature, node), drawn feature by feature
        thr = np.array(
            [[cand_set.per_feature[j][rng.integers(cand_set.q)] for _ in nodes] for j in feats]
        )
        sums = agg.split_pair_round(nodes, dict(zip(feats, thr)))  # (F, nodes, 4)
        # first maximum over features: ties go to the lowest feature
        best = split_score(*np.moveaxis(sums, -1, 0), lam, gamma).argmax(axis=0)
        tree.feature[nodes] = np.asarray(feats)[best]
        tree.threshold[nodes] = thr[best, np.arange(len(nodes))]
        agg.apply_splits(tree.feature, tree.threshold)
    # last level: node i's chosen (GL, HL, GR, HR) are the sums of leaves 2i, 2i + 1
    return tree, sums[best, np.arange(len(nodes))].reshape(-1, 2)


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
    at the cost of a single query per tree. HIST scores a whole level at
    once (ties go to the lowest candidate); PR draws every node's candidate
    in pre-order before the first level is split.

    Returns (tree, (2^d, 2) leaf sums, {feature: root Hessian bins}).
    """
    if method not in (SplitMethod.HIST, SplitMethod.PARTIALLY_RANDOM):
        raise InvalidParameterError("single-feature growth applies to hist/pr only")
    G, H = agg.histogram_round([0], [feature_j], cand_set, category="s")[0, 0].T
    Q = G.size
    cum_g = np.concatenate([[0.0], np.cumsum(G)])
    cum_h = np.concatenate([[0.0], np.cumsum(H)])
    tree = Tree.zeros(depth)
    if method is SplitMethod.PARTIALLY_RANDOM:
        drawn = np.zeros(tree.feature.size, dtype=np.int64)
        for heap in _preorder(depth):
            drawn[heap] = rng.integers(Q)
    # bin interval [lo, hi) of every heap node, parents set before children
    lo = np.zeros(2 * tree.n_leaves - 1, dtype=np.int64)
    hi = np.full(2 * tree.n_leaves - 1, Q, dtype=np.int64)
    for level in range(depth):
        nodes = np.asarray(_level_nodes(level))
        a, b = lo[nodes], hi[nodes]
        if method is SplitMethod.HIST:
            # (node, candidate) scores of the level; first maximum per node
            a2, b2 = a[:, None], b[:, None]
            cuts = np.clip(np.arange(1, Q + 1), a2, b2)
            GL = cum_g[cuts] - cum_g[a2]
            HL = cum_h[cuts] - cum_h[a2]
            GR = (cum_g[b2] - cum_g[a2]) - GL
            HR = (cum_h[b2] - cum_h[a2]) - HL
            c = split_score(GL, HL, GR, HR, lam, gamma).argmax(axis=1)
        else:
            c = drawn[nodes]
        cut = np.clip(c + 1, a, b)
        tree.feature[nodes] = feature_j
        tree.threshold[nodes] = [_routing_threshold(cand_set, feature_j, int(k)) for k in c]
        lo[2 * nodes + 1], hi[2 * nodes + 1] = a, cut
        lo[2 * nodes + 2], hi[2 * nodes + 2] = cut, b
    leaf_lo, leaf_hi = lo[-tree.n_leaves :], hi[-tree.n_leaves :]
    leaves = np.stack([cum_g[leaf_hi] - cum_g[leaf_lo], cum_h[leaf_hi] - cum_h[leaf_lo]], axis=1)
    return tree, leaves, {feature_j: H.copy()}
