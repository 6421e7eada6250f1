"""Loss derivatives and query sensitivities for binary classification.

All boosting statistics reduce to per-record (g, h) pairs. Three update modes
share the same aggregation query:

  averaging: g = 1{y = 1}, h = 1 (class counts, random-forest style)
  gradient:  g = sigmoid(raw) - y, h = 1 (first-order boosting)
  newton:    g = sigmoid(raw) - y, h = p (1 - p) (second-order boosting)

Binary cross-entropy keeps these analytically bounded, which fixes the L2
sensitivity of the (sum g, sum h) query without clipping.

``update_scores`` is the one rule by which a finished batch of trees moves
raw scores, both on the clients during training and when a saved ensemble
is replayed for prediction. It takes the batch as per-tree leaf-weight
vectors and adds them, in order, into one buffer (``sum_vectors``), so a
batch of any size needs an O(n) working set.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from enum import Enum

import numpy as np

from .accounting import InvalidParameterError

__all__ = [
    "UpdateMode",
    "sigmoid",
    "bce_gradients",
    "mode_gradients",
    "query_sensitivity",
    "sum_vectors",
    "update_scores",
    "batch_ranges",
]


class UpdateMode(Enum):
    AVERAGING = "averaging"
    GRADIENT = "gradient"
    NEWTON = "newton"


# L2 sensitivity of releasing one record's (g, h) contribution.
# newton: |g| <= 1 and h <= 1/4, so ||(g, h)||_2 <= sqrt(1 + 1/16) = sqrt(17)/4.
# averaging and gradient: |g| <= 1 and h = 1, so ||(g, h)||_2 <= sqrt(2).
SENSITIVITY_NEWTON = math.sqrt(17.0) / 4.0
SENSITIVITY_COUNTING = math.sqrt(2.0)


def sigmoid(x) -> np.ndarray:
    """Numerically stable logistic function, elementwise.

    With e = exp(-|x|), which never overflows, the numerator is
    max(e, 1{x >= 0}): 1 for x >= 0 (where e <= 1) and e below (where
    e >= 0), and NaN propagates. Dividing by 1 + e gives 1 / (1 + e) for
    x >= 0 and e / (1 + e) below, with no data-dependent select. Every step
    after the first runs in place.
    """
    arr = np.asarray(x, dtype=float)
    e = np.abs(arr, out=np.empty(arr.shape))
    np.exp(np.negative(e, out=e), out=e)
    p = np.maximum(e, arr >= 0)
    e += 1.0
    p /= e
    return p


def bce_gradients(label, raw_score) -> np.ndarray:
    """First and second derivatives of binary cross-entropy at aligned
    arrays of labels and raw scores.

    With p = sigmoid(raw_score): g = p - label, h = p (1 - p). Both are
    written into one record-major (n, 2) buffer, returned transposed as rows
    g and h: the (2, n) result's ``.T`` is C-contiguous. Float labels save a
    cast per call.
    """
    p = sigmoid(raw_score)
    gh = np.empty(p.shape + (2,))
    np.subtract(p, label, out=gh[..., 0])
    np.subtract(1.0, p, out=gh[..., 1])
    gh[..., 1] *= p
    return gh.T


def mode_gradients(label, raw_score, mode: UpdateMode) -> np.ndarray:
    """Per-record (g, h) released under the given update mode, as the (2, n)
    float array of rows g and h, held record-major (see ``bce_gradients``)."""
    if mode is UpdateMode.NEWTON:
        return bce_gradients(label, raw_score)
    if mode is UpdateMode.AVERAGING:
        g = (np.asarray(label) == 1.0).astype(float)
    elif mode is UpdateMode.GRADIENT:
        g = sigmoid(raw_score)
        g -= label
    else:
        raise ValueError(f"unknown update mode: {mode!r}")
    gh = np.empty(g.shape + (2,))
    gh[..., 0] = g
    gh[..., 1] = 1.0
    return gh.T


def query_sensitivity(mode: UpdateMode) -> float:
    """L2 sensitivity of the aggregation query under the given update mode."""
    if mode is UpdateMode.NEWTON:
        return SENSITIVITY_NEWTON
    if mode in (UpdateMode.AVERAGING, UpdateMode.GRADIENT):
        return SENSITIVITY_COUNTING
    raise ValueError(f"unknown update mode: {mode!r}")


def sum_vectors(vectors: Iterable, shape: tuple[int, ...]) -> tuple[np.ndarray, int]:
    """The sum of ``vectors``, each a float array of ``shape``, and how many
    there were.

    Each vector is added, in order, into one zeroed buffer, so the working
    set is the sum plus the vector being added. numpy's axis-0 reduce over
    the stacked (count, n) matrix adds in the same order, so for n > 1 the
    sum is bit-identical to ``W.sum(axis=0)`` (at n = 1 that reduce sums
    pairwise instead).
    """
    total, count = np.zeros(shape), 0
    for vec in vectors:
        vec = np.asarray(vec, dtype=float)
        if vec.shape != shape:
            raise InvalidParameterError(f"expected vectors of shape {shape}, got {vec.shape}")
        total += vec
        count += 1
    if count == 0:
        raise InvalidParameterError("a batch update needs at least one tree")
    return total, count


def update_scores(raw: np.ndarray, weights: Iterable, eta: float, plain: bool) -> np.ndarray:
    """Raw scores after one finished batch, from its per-tree (n,) leaf-weight
    vectors, summed in order as they arrive (see ``sum_vectors``).

    plain (batch size 1): raw + the summed leaf weights. Otherwise squash the
    mean leaf weight per record: raw + eta * (sigmoid(mean) - sigmoid(0)), so
    an all-zero batch is a no-op.
    """
    total, count = sum_vectors(weights, raw.shape)
    if plain:
        return np.add(raw, total, out=total)
    total /= count
    return raw + eta * (sigmoid(total) - 0.5)


def batch_ranges(T: int, B: int) -> tuple[tuple[int, int], ...]:
    """(start, end) of each batch of ``T`` trees taken in runs of ``B``; the
    last run may be shorter."""
    return tuple((start, min(start + B, T)) for start in range(0, T, B))
