"""Per-feature split-candidate generation and refinement.

Candidates are ordered thresholds inside the public feature bounds. Bin q of
the matching histogram covers (s_{q-1}, s_q], closed on the right, with the
first bin closed below at the lower bound and the last bin absorbing values
above the final threshold.

Generators:
  uniform   - evenly spaced over [a, b]; data independent.
  log       - evenly spaced in log1p-shifted space, for skewed features;
              data independent.
  quantile  - empirical quantiles; informative but reads raw values, so any
              run using it is only partially private.
  iterative Hessian refinement - reads a (noisy) Hessian histogram, merges
              starved bins into their right neighbour and bisects heavy ones,
              then pads back to exactly Q thresholds. Pure post-processing of
              an already-released histogram.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .data import check_bounds

__all__ = [
    "SplitCandidateSet",
    "uniform_candidates",
    "log_candidates",
    "quantile_candidates",
    "iterative_hessian_refine",
    "bin_index",
]


@dataclass(frozen=True, eq=False)
class SplitCandidateSet:
    """Strictly increasing threshold arrays, one per feature, all length Q."""

    per_feature: tuple[np.ndarray, ...]
    bounds: tuple[tuple[float, float], ...]

    def __post_init__(self):
        arrays = []
        for j, vals in enumerate(self.per_feature):
            arr = np.asarray(vals, dtype=float)
            a, b = self.bounds[j]
            if arr.ndim != 1 or arr.size < 1:
                raise ValueError(f"feature {j}: candidate list must be non-empty 1-d")
            if np.any(np.diff(arr) <= 0.0):
                raise ValueError(f"feature {j}: candidates must be strictly increasing")
            if arr[0] < a or arr[-1] > b:
                raise ValueError(f"feature {j}: candidates outside bounds ({a}, {b})")
            arr.setflags(write=False)
            arrays.append(arr)
        sizes = {arr.size for arr in arrays}
        if len(sizes) > 1:
            raise ValueError("all features must carry the same number of candidates")
        object.__setattr__(self, "per_feature", tuple(arrays))
        object.__setattr__(self, "bounds", tuple((float(a), float(b)) for a, b in self.bounds))

    @property
    def n_features(self) -> int:
        return len(self.per_feature)

    @property
    def q(self) -> int:
        return self.per_feature[0].size


def bin_index(values: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    """0-based bin of each value: bin q covers (s_q, s_{q+1}] with a closed
    first bin; values above the last threshold land in the last bin."""
    idx = np.searchsorted(thresholds, values, side="left")
    return np.minimum(idx, len(thresholds) - 1)


def uniform_candidates(bounds, Q: int) -> SplitCandidateSet:
    """Q evenly spaced thresholds per feature: s_q = a + (q-1)(b-a)/(Q-1)."""
    if Q < 2:
        raise ValueError(f"need at least 2 candidates, got Q={Q}")
    checked = check_bounds(bounds)
    per = tuple(np.linspace(a, b, Q) for a, b in checked)
    return SplitCandidateSet(per, checked)


def log_candidates(bounds, Q: int) -> SplitCandidateSet:
    """Q thresholds per feature, evenly spaced in log(1 + x - a) and mapped back.

    Endpoints are preserved exactly; spacing concentrates near the lower bound,
    which suits right-skewed features.
    """
    if Q < 2:
        raise ValueError(f"need at least 2 candidates, got Q={Q}")
    checked = check_bounds(bounds)
    per = []
    for a, b in checked:
        t = np.linspace(0.0, np.log1p(b - a), Q)
        vals = a + np.expm1(t)
        vals[0], vals[-1] = a, b
        per.append(vals)
    return SplitCandidateSet(tuple(per), checked)


def quantile_candidates(values: Sequence[float], Q: int, bounds: tuple[float, float]) -> np.ndarray:
    """Empirical quantiles of one feature column at levels q/(Q+1), q=1..Q.

    Quantiles interpolate order statistics at position p*(n+1). Duplicates are
    removed and the set is padded back to Q using the same widest-interval
    fill rule as the Hessian refinement. Reads raw data: runs built on it are
    not fully private.
    """
    vals = np.sort(np.asarray(values, dtype=float))
    if vals.size == 0:
        raise ValueError("cannot take quantiles of an empty column")
    if Q < 1:
        raise ValueError(f"need Q >= 1, got {Q}")
    a, b = float(bounds[0]), float(bounds[1])
    n = vals.size
    levels = np.arange(1, Q + 1) / (Q + 1)
    pos = np.clip(levels * (n + 1), 1.0, float(n))  # 1-based order-statistic position
    low = np.floor(pos).astype(int) - 1
    frac = pos - np.floor(pos)
    high = np.minimum(low + 1, n - 1)
    thresholds = vals[low] + frac * (vals[high] - vals[low])
    thresholds = np.unique(np.clip(thresholds, a, b))
    return _fit_to_size(thresholds, Q, a, b)


def _fill_counts(widths: np.ndarray, total: int) -> np.ndarray:
    """Distribute ``total`` fill points over intervals: equal base share,
    remainder to the widest intervals first (ties to the leftmost)."""
    k = widths.size
    counts = np.full(k, total // k, dtype=int)
    remainder = total % k
    if remainder:
        # stable sort keeps leftmost-first among equal widths
        order = np.argsort(-widths, kind="stable")
        counts[order[:remainder]] += 1
    return counts


def _fit_to_size(sorted_unique: np.ndarray, Q: int, a: float, b: float) -> np.ndarray:
    """Pad (uniform fill inside widest intervals) or thin (even subselection)
    a sorted unique threshold array to exactly Q values inside [a, b]."""
    vals = np.asarray(sorted_unique, dtype=float)
    if vals.size > Q:
        pick = np.round(np.linspace(0, vals.size - 1, Q)).astype(int)
        return vals[pick]
    guard = 0
    while vals.size < Q:
        edges = np.unique(np.concatenate([[a], vals, [b]]))
        widths = np.diff(edges)
        counts = _fill_counts(widths, Q - vals.size)
        added = [vals]
        for (lo, hi), c in zip(zip(edges[:-1], edges[1:]), counts):
            if c > 0:
                added.append(lo + (hi - lo) * np.arange(1, c + 1) / (c + 1))
        vals = np.unique(np.concatenate(added))
        guard += 1
        if guard > 64:  # interval arithmetic exhausted; bounds too tight for Q
            raise ValueError(f"cannot place {Q} distinct thresholds inside ({a}, {b})")
    return vals


def _refine_feature(hess: np.ndarray, thresholds: np.ndarray, a: float, b: float) -> np.ndarray:
    """One refinement round for one feature.

    Scans bins left to right against the target mass theta = sum(H+)/Q.
    Starved bins merge rightward (mass accumulates); a run that reaches the
    end of the array keeps only its right edge. Bins at or above target keep
    both edges and gain their midpoint. The survivor set is then fitted back
    to exactly Q = len(thresholds) thresholds.
    """
    hess = np.asarray(hess, dtype=float)
    if hess.shape != thresholds.shape:
        raise ValueError(
            f"histogram has shape {hess.shape} but the candidates have shape {thresholds.shape}"
        )
    floored = np.maximum(hess, 0.0)
    theta = floored.sum() / hess.size
    edges = np.concatenate([[a], thresholds])
    kept: list[float] = []
    carry = 0.0
    ended_in_merge = False
    for q in range(hess.size):
        mass = carry + floored[q]
        if mass < theta:
            carry = mass
            ended_in_merge = True
        else:
            left, right = edges[q], edges[q + 1]
            kept.extend((left, right, 0.5 * (left + right)))
            carry = 0.0
            ended_in_merge = False
    if ended_in_merge:
        kept.append(edges[-1])
    survivors = np.unique(np.clip(np.asarray(kept, dtype=float), a, b))
    return _fit_to_size(survivors, thresholds.size, a, b)


def iterative_hessian_refine(
    hessians: Mapping[int, np.ndarray], current: SplitCandidateSet
) -> SplitCandidateSet:
    """Refine candidate thresholds around released Hessian histograms.

    ``hessians`` maps a feature to its Q Hessian bin sums; features left out
    keep their current thresholds. The histograms are the only data
    dependence: the operation is pure post-processing and costs no
    additional privacy.
    """
    per = list(current.per_feature)
    for j, column in hessians.items():
        if not 0 <= j < current.n_features:
            raise ValueError(f"histogram for feature {j}, candidate set has {current.n_features}")
        a, b = current.bounds[j]
        per[j] = _refine_feature(column, per[j], a, b)
    return SplitCandidateSet(tuple(per), current.bounds)
