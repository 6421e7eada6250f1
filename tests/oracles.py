"""Independent reference implementations used to check the library.

Everything here is deliberately written from scratch against the definitions,
using plain loops and per-record arithmetic, and must stay independent of the
code paths it validates.
"""

from __future__ import annotations

import math

import numpy as np


def dense_grid_epsilon(sigma: float, k: int, delta: float, orders=None):
    """Brute-force min of the RDP->DP conversion for k composed Gaussian
    queries at noise multiplier sigma, over the Renyi ``orders`` (default: the
    dense grid 1.5 to 64 in steps of 0.01)."""
    best = math.inf
    for alpha in dense_alpha_grid() if orders is None else orders:
        alpha = float(alpha)
        tau = k * alpha / (2.0 * sigma * sigma)
        eps = tau + math.log(1.0 / delta) / (alpha - 1.0)
        if eps < best:
            best = eps
    return best


def dense_alpha_grid(lo=1.5, hi=64.0, step=0.01) -> np.ndarray:
    count = int(round((hi - lo) / step)) + 1
    return lo + step * np.arange(count)


def pairwise_auc(labels, scores) -> float:
    """O(n_pos * n_neg) pairwise count with half credit for ties."""
    y = np.asarray(labels)
    s = np.asarray(scores, dtype=float)
    pos = s[y == 1]
    neg = s[y == 0]
    if pos.size == 0 or neg.size == 0:
        raise ValueError("need both classes")
    wins = (pos[:, None] > neg[None, :]).sum()
    ties = (pos[:, None] == neg[None, :]).sum()
    return (wins + 0.5 * ties) / (pos.size * neg.size)


def logistic(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def masked_sigmoid(x) -> np.ndarray:
    """Two-branch stable logistic over boolean masks: 1 / (1 + exp(-x)) where
    x >= 0 and exp(x) / (1 + exp(x)) elsewhere."""
    arr = np.asarray(x, dtype=float)
    out = np.empty_like(arr)
    pos = arr >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-arr[pos]))
    ex = np.exp(arr[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def scalar_leaf_weight(G: float, H: float, lam: float, averaging: bool) -> float:
    """One leaf's raw weight in Python floats: +-G / (max(H, 0) + lam)."""
    denom = max(H, 0.0) + lam
    return G / denom if averaging else -G / denom


def scalar_postprocess(w: float, eta: float, beta: float) -> float:
    """One raw weight clipped to magnitude beta, then scaled by eta."""
    return eta * math.copysign(min(abs(w), beta), w) if w != 0.0 else 0.0


def ring_cell_sums(
    rows, cells, n_cells: int, width: int, precision_bits: int, ring_bits: int
) -> list:
    """Per-cell sums of fixed-point encoded rows of ``width`` values, in
    Python integers.

    Each value is encoded as round-half-even(value * 2^precision_bits) mod
    2^ring_bits; cell sums are reduced mod 2^ring_bits, read as signed
    (upper half negative) and scaled back. Returns n_cells lists of floats.
    """
    modulus, scale = 1 << ring_bits, 1 << precision_bits
    sums = [[0] * width for _ in range(n_cells)]
    for row, cell in zip(rows, cells):
        for k, value in enumerate(row):
            sums[cell][k] = (sums[cell][k] + round(value * scale)) % modulus
    return [[(s - modulus if s >= modulus // 2 else s) / scale for s in cell] for cell in sums]


def dense_secure_sum(client_vectors, codec) -> np.ndarray:
    """Secure sum of dense per-client vectors, one row per client, in Python
    integers: every value is encoded to fixed point, the encodings are summed
    mod 2^ring_bits and the sum is decoded (``ring_cell_sums`` with every
    row in one cell)."""
    rows = np.asarray(client_vectors, dtype=float).tolist()
    width = len(rows[0]) if rows else 0
    sums = ring_cell_sums(
        rows, [0] * len(rows), 1, width, codec.precision_bits, codec.ring_bits
    )
    return np.array(sums[0])


def bce_loss(label: float, raw: float) -> float:
    p = logistic(raw)
    p = min(max(p, 1e-300), 1.0 - 1e-16)
    return -(label * math.log(p) + (1.0 - label) * math.log(1.0 - p))


def exact_hessian_histogram(x: np.ndarray, h: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    """Exact per-bin Hessian sums under the closed-right binning rule,
    computed by per-record comparison loops (independent of searchsorted)."""
    Q = len(thresholds)
    out = np.zeros(Q)
    for xi, hi in zip(x, h):
        b = 0
        while b < Q - 1 and xi > thresholds[b]:
            b += 1
        out[b] += hi
    return out


def closed_right_bin(x: float, thresholds) -> int:
    """Bin of one value: the first threshold at or above it, else the last bin."""
    b = 0
    while b < len(thresholds) - 1 and x > thresholds[b]:
        b += 1
    return b


def client_cell_vectors(client_sizes, cells, g, h, n_cells: int) -> np.ndarray:
    """Dense per-client contributions, one row per client: the client's sum
    of g and of h in every cell, laid out (g_0, h_0, g_1, h_1, ...), summed
    record by record in record order. Records are client-contiguous."""
    out = np.zeros((len(client_sizes), 2 * n_cells))
    record = 0
    for client, size in enumerate(client_sizes):
        for _ in range(size):
            out[client, 2 * cells[record]] += g[record]
            out[client, 2 * cells[record] + 1] += h[record]
            record += 1
    return out


def split_gain(gl, hl, gr, hr, lam, gamma):
    """Second-order gain of one split in Python floats, Hessian sums floored
    at zero. A side whose denominator is zero scores 0 when its gradient sum
    is 0 and inf otherwise; a parent whose denominator is zero scores 0. A
    gain whose terms cancel as inf - inf is -inf, never chosen."""

    def term(g, denom):
        if denom > 0.0:
            return g * g / denom
        return 0.0 if g == 0.0 else math.inf

    hl = max(hl, 0.0)
    hr = max(hr, 0.0)
    gt = gl + gr
    parent = gt * gt / (hl + hr + lam) if hl + hr + lam > 0.0 else 0.0
    gain = 0.5 * (term(gl, hl + lam) + term(gr, hr + lam) - parent) - gamma
    return -math.inf if math.isnan(gain) else gain


class ReferenceNode:
    """Node of the brute-force greedy tree: either (feature, cand_index,
    threshold, left, right) or a leaf with raw first/second-order sums."""

    def __init__(self, **kw):
        self.__dict__.update(kw)
        self.is_leaf = "g_sum" in kw


def reference_greedy_tree(X, y, per_feature_thresholds, features, depth, lam, gamma):
    """Exhaustive second-order greedy tree from per-record statistics.

    Gradients are binary cross-entropy at raw score 0 (g = p - y with p = 1/2,
    h = 1/4). Every (feature, candidate) cumulative-prefix split is scored
    from direct per-record sums: candidate c sends records with x <= s_c
    left, except the final candidate, whose bin absorbs the upper tail, so
    its split sends every record left. Ties break to the lowest feature index
    then the lowest candidate index. Recurses to exact depth; leaves carry
    raw sums and the unscaled second-order weight -G / (H + lam).
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    g = 0.5 - y
    h = np.full(len(y), 0.25)
    features = sorted(features)

    def split_indices(idx, j, c):
        thresholds = per_feature_thresholds[j]
        if c == len(thresholds) - 1:
            return idx, idx[:0]
        mask = X[idx, j] <= thresholds[c]
        return idx[mask], idx[~mask]

    def build(idx, dep):
        if dep == depth:
            return ReferenceNode(
                g_sum=float(g[idx].sum()),
                h_sum=float(h[idx].sum()),
                weight=-float(g[idx].sum()) / (max(float(h[idx].sum()), 0.0) + lam),
            )
        best = None
        for j in features:
            for c in range(len(per_feature_thresholds[j])):
                left, right = split_indices(idx, j, c)
                score = split_gain(
                    g[left].sum(), h[left].sum(), g[right].sum(), h[right].sum(), lam, gamma
                )
                if best is None or score > best[0]:
                    best = (score, j, c)
        _, j, c = best
        left_idx, right_idx = split_indices(idx, j, c)
        return ReferenceNode(
            feature=j,
            cand=c,
            left=build(left_idx, dep + 1),
            right=build(right_idx, dep + 1),
        )

    return build(np.arange(len(y)), 0)


def collect_structure(ref_node):
    """Flatten a reference tree to a list of (feature, cand_index) in preorder,
    plus leaf weights left-to-right."""
    splits = []
    weights = []

    def walk(node):
        if node.is_leaf:
            weights.append(node.weight)
            return
        splits.append((node.feature, node.cand))
        walk(node.left)
        walk(node.right)

    walk(ref_node)
    return splits, weights


def route_tree_dict(tree_dict: dict, x: np.ndarray) -> float:
    """Walk an exported tree JSON dict (heap-ordered lists) one node at a time
    for one record; returns the leaf weight."""
    feature, threshold = tree_dict["feature"], tree_dict["threshold"]
    node = 0
    while node < len(feature):
        node = 2 * node + 1 if x[feature[node]] <= threshold[node] else 2 * node + 2
    return tree_dict["leaf_weights"][node - len(feature)]


def rf_average_prediction(tree_dicts, X) -> np.ndarray:
    """Independent averaging-forest prediction from exported tree dicts: the
    mean leaf proportion over trees, clipped to [0, 1]."""
    X = np.asarray(X, dtype=float)
    out = np.zeros(X.shape[0])
    for row in range(X.shape[0]):
        vals = [route_tree_dict(td, X[row]) for td in tree_dicts]
        out[row] = min(max(sum(vals) / len(vals), 0.0), 1.0)
    return out


def sample_skewness(values: np.ndarray) -> float:
    v = np.asarray(values, dtype=float)
    centered = v - v.mean()
    m2 = np.mean(centered**2)
    m3 = np.mean(centered**3)
    return m3 / m2**1.5
