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
from typing import NamedTuple

import numpy as np

from .accounting import InvalidParameterError

__all__ = [
    "UpdateMode",
    "GradientPair",
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


class GradientPair(NamedTuple):
    g: float | np.ndarray
    h: float | np.ndarray


# L2 sensitivity of releasing one record's (g, h) contribution.
# newton: |g| <= 1 and h <= 1/4, so ||(g, h)||_2 <= sqrt(1 + 1/16) = sqrt(17)/4.
# averaging and gradient: |g| <= 1 and h = 1, so ||(g, h)||_2 <= sqrt(2).
SENSITIVITY_NEWTON = math.sqrt(17.0) / 4.0
SENSITIVITY_COUNTING = math.sqrt(2.0)


def sigmoid(x):
    """Numerically stable logistic function; preserves scalar/array shape.

    With e = exp(-|x|), which never overflows: 1 / (1 + e) for x >= 0 and
    e / (1 + e) below, selected elementwise without boolean masks.
    """
    arr = np.asarray(x, dtype=float)
    e = np.exp(-np.abs(arr))
    out = np.where(arr >= 0, 1.0, e) / (1.0 + e)
    if np.isscalar(x) or (isinstance(x, np.ndarray) and x.ndim == 0):
        return float(out)
    return out


def bce_gradients(label, raw_score) -> GradientPair:
    """First and second derivatives of binary cross-entropy at a raw score.

    With p = sigmoid(raw_score): g = p - label, h = p (1 - p). Accepts scalars
    or aligned arrays.
    """
    p = sigmoid(raw_score)
    label = np.asarray(label, dtype=float) if not np.isscalar(label) else float(label)
    g = p - label
    h = p * (1.0 - p)
    return GradientPair(g, h)


def mode_gradients(label, raw_score, mode: UpdateMode) -> GradientPair:
    """Per-record statistics released for the given update mode."""
    if mode is UpdateMode.AVERAGING:
        lab = np.asarray(label, dtype=float)
        g = (lab == 1.0).astype(float)
        h = np.ones_like(g)
        if np.isscalar(label):
            return GradientPair(float(g), 1.0)
        return GradientPair(g, h)
    if mode is UpdateMode.GRADIENT:
        g, _ = bce_gradients(label, raw_score)
        h = 1.0 if np.isscalar(raw_score) else np.ones_like(np.asarray(raw_score, dtype=float))
        return GradientPair(g, h)
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


def update_scores(
    raw: np.ndarray, W: np.ndarray, eta: float, plain: bool, centered: bool
) -> np.ndarray:
    """Raw scores after one finished batch, from its (trees, n) leaf-weight matrix.

    plain (batch size 1): raw + the summed leaf weights. Otherwise squash the
    mean leaf weight per record: raw + eta * (sigmoid(mean) - sigmoid(0)) in
    the centered form, so an all-zero batch is a no-op; the uncentered
    variant keeps the raw sigmoid and its +eta/2 bias.
    """
    W = np.asarray(W, dtype=float)
    if W.ndim != 2 or W.shape[0] == 0:
        raise InvalidParameterError(
            f"a batch update needs a non-empty (trees, n) matrix, got shape {W.shape}"
        )
    if plain:
        return raw + W.sum(axis=0)
    base = 0.5 if centered else 0.0
    return raw + eta * (sigmoid(W.mean(axis=0)) - base)


def batch_ranges(T: int, B: int) -> tuple[tuple[int, int], ...]:
    """(start, end) of each batch of ``T`` trees taken in runs of ``B``; the
    last run may be shorter."""
    return tuple((start, min(start + B, T)) for start in range(0, T, B))
