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
is replayed for prediction.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

from .accounting import InvalidParameterError

__all__ = [
    "UpdateMode",
    "sigmoid",
    "bce_gradients",
    "mode_gradients",
    "query_sensitivity",
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

    With e = exp(-|x|), which never overflows: 1 / (1 + e) for x >= 0 and
    e / (1 + e) below, selected elementwise without boolean masks.
    """
    arr = np.asarray(x, dtype=float)
    e = np.exp(-np.abs(arr))
    return np.where(arr >= 0, 1.0, e) / (1.0 + e)


def bce_gradients(label, raw_score) -> np.ndarray:
    """First and second derivatives of binary cross-entropy at aligned
    arrays of labels and raw scores.

    With p = sigmoid(raw_score): g = p - label, h = p (1 - p). Returns the
    (2, n) float array of rows g and h.
    """
    p = sigmoid(raw_score)
    return np.stack([p - np.asarray(label, dtype=float), p * (1.0 - p)])


def mode_gradients(label, raw_score, mode: UpdateMode) -> np.ndarray:
    """Per-record (g, h) released under the given update mode, as the (2, n)
    float array of rows g and h."""
    if mode is UpdateMode.AVERAGING:
        g = (np.asarray(label, dtype=float) == 1.0).astype(float)
        return np.stack([g, np.ones_like(g)])
    if mode is UpdateMode.GRADIENT:
        gh = bce_gradients(label, raw_score)
        gh[1] = 1.0
        return gh
    if mode is UpdateMode.NEWTON:
        return bce_gradients(label, raw_score)
    raise ValueError(f"unknown update mode: {mode!r}")


def query_sensitivity(mode: UpdateMode) -> float:
    """L2 sensitivity of the aggregation query under the given update mode."""
    if mode is UpdateMode.NEWTON:
        return SENSITIVITY_NEWTON
    if mode in (UpdateMode.AVERAGING, UpdateMode.GRADIENT):
        return SENSITIVITY_COUNTING
    raise ValueError(f"unknown update mode: {mode!r}")


def update_scores(raw: np.ndarray, W: np.ndarray, eta: float, plain: bool) -> np.ndarray:
    """Raw scores after one finished batch, from its (trees, n) leaf-weight matrix.

    plain (batch size 1): raw + the summed leaf weights. Otherwise squash the
    mean leaf weight per record: raw + eta * (sigmoid(mean) - sigmoid(0)), so
    an all-zero batch is a no-op.
    """
    W = np.asarray(W, dtype=float)
    if W.ndim != 2 or W.shape[0] == 0:
        raise InvalidParameterError(
            f"a batch update needs a non-empty (trees, n) matrix, got shape {W.shape}"
        )
    if plain:
        return raw + W.sum(axis=0)
    return raw + eta * (sigmoid(W.mean(axis=0)) - 0.5)


def batch_ranges(T: int, B: int) -> tuple[tuple[int, int], ...]:
    """(start, end) of each batch of ``T`` trees taken in runs of ``B``; the
    last run may be shorter."""
    return tuple((start, min(start + B, T)) for start in range(0, T, B))
